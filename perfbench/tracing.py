"""In-memory tracer for the traced benchmark run.

``Tracer.install`` replaces the package's functions with timing wrappers
at every name they are bound to: the defining module and each module
that imported them by name (``bq.face_vertex_at`` as well as
``tree.face_vertex_at``).  ``uninstall`` puts the originals back.  The
untraced run never installs anything, so its numbers come from
unwrapped code.

Every wrapped call is a span with a parent.  Spans at the coarse layer
boundaries (``KEPT_SPANS``) are kept whole as (id, name, start, end,
parent).  The inner layers make millions of calls per run, so their
spans are folded into per-function (calls, total, self) as they close.
Self time is a span's duration minus the time covered by its direct
child spans.  Counters are bumped from the wrapped calls' arguments and
results.

Render pool workers are forked with the wrappers already in place; the
wrapper on ``render._render_rows`` makes each worker task start from an
empty tracer and write its state to a file that the parent merges.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Functions wrapped per layer, as "attr" or "Class.method" of
# bqdomain.<layer>.  Names missing from the code are skipped, and any
# metric built on them then reads zero.
LAYER_FUNCTIONS = {
    "algebra": ("BoundaryData.lam", "solve_fourth", "quad_residual",
                "vertex_residual", "elementary_move", "face_value", "sigma"),
    "tree": ("canonical_face", "canonical_region", "face_vertex_at",
             "face_edge_at", "face_side_region", "faces_at", "regions_at",
             "neighbors", "edge_surrounding", "edge_faces", "on_face",
             "face_position"),
    "markoff": ("MarkoffMap.quad_at", "MarkoffMap._move",
                "MarkoffMap.eval_region", "MarkoffMap.region_values_at",
                "MarkoffMap.eval_face", "MarkoffMap.eval_sigma"),
    "neighbors": ("h_star", "h_value", "h_value_sym", "face_h_inputs",
                  "dist_to_interval"),
    "bq": ("decide_bq", "find_sink", "attracting_arc", "face_witness",
           "face_in_level"),
    "render": ("render_slice", "_render_rows", "classify_pixel",
               "point_coords", "pixel_rgb", "verdict_tag"),
    "fib": ("growth_report", "keys_to_depth", "FibTable.value"),
    "cli": ("main",),
}

# The render-level wrappers alone: 256 pixel calls and a few tasks per
# render, so they cost nothing measurable.
RENDER_FUNCTIONS = {"render": ("render_slice", "_render_rows",
                               "classify_pixel")}

KEPT_SPANS = {"op", "bq.decide_bq", "bq.find_sink", "render.render_slice",
              "render._render_rows", "render.classify_pixel",
              "fib.growth_report", "cli.main"}

WORKER_TASK = "render._render_rows"


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.stack = []                  # open frames: [child_s, span_id]
        self.stats = {}                  # name -> [calls, total_s, self_s]
        self.spans = []                  # (id, name, start, end, parent)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.decide_faces = set()        # in-level faces of the open decide
        self._next_id = 0
        self._patched = []               # (owner, attr, original)
        self._task_seq = 0

    # -- recording -------------------------------------------------------

    def new_id(self):
        self._next_id += 1
        return self._next_id

    def reset(self):
        """Empty every record in place (wrappers hold references)."""
        self.stack.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self.decide_faces.clear()

    def wrap(self, name, fn, hooks=(None, None)):
        pre, post = hooks
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep = name in KEPT_SPANS
        new_id = self.new_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else 0
            frame = [0.0, new_id() if keep else parent_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep:
                    spans.append((frame[1], name, start, end, parent_id))
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def span(self, name, fn, *args):
        """Run fn(*args) inside a kept span of the given name."""
        return self.wrap(name, fn)(*args)

    # -- installation ----------------------------------------------------

    def install(self, layers=LAYER_FUNCTIONS):
        import importlib
        hooks = self._hooks()
        modules = [m for k, m in list(sys.modules.items())
                   if k == "bqdomain" or k.startswith("bqdomain.")]
        for layer, names in layers.items():
            module = importlib.import_module("bqdomain." + layer)
            for dotted in names:
                owner, attr = _resolve(module, dotted)
                fn = getattr(owner, attr, None) if owner else None
                if fn is None or inspect.isgeneratorfunction(fn):
                    continue
                name = "%s.%s" % (layer, dotted.split(".")[-1])
                wrapped = self.wrap(name, fn, hooks.get(name, (None, None)))
                if name == WORKER_TASK:
                    wrapped = self._worker_task(wrapped)
                self._patch(owner, attr, fn, wrapped)
                if owner is module:
                    for other in modules:
                        if other is not module and \
                                getattr(other, attr, None) is fn:
                            self._patch(other, attr, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _hooks(self):
        """(pre, post) hooks per wrapped name, feeding the counters."""
        counts, maxima, faces = self.counts, self.maxima, self.decide_faces
        memo_starts = []

        def vertex_at(args, word):
            counts["tree.face_vertex_at.letters"] += len(word)

        def sink(args, res):
            counts["bq.descent_steps"] += res.steps

        def arc(args, res):
            window = max(0, res.n2 - res.n1 + 1)
            counts["bq.arc_steps"] += res.steps
            counts["bq.arc_window_edges"] += window
            maxima["bq.max_arc_len"] = max(maxima["bq.max_arc_len"], window)
            maxima["bq.max_anchor_len"] = max(maxima["bq.max_anchor_len"],
                                              len(args[1].anchor))

        def in_level(args, res):
            if res:
                faces.add(args[1])

        def move(args, res):
            counts["markoff.moves"] += 1

        # decide_bq and growth_report each run on one fresh map here, so
        # its memo holds the root quad plus one quad per move.
        def memo_open(args):
            memo_starts.append(counts["markoff.moves"])

        def memo_close():
            entries = 1 + counts["markoff.moves"] - memo_starts.pop()
            maxima["markoff.memo_entries_max"] = max(
                maxima["markoff.memo_entries_max"], entries)

        def decide(args, verdict):
            memo_close()
            counts["bq.faces_seen"] += len(faces)
            faces.clear()
            if verdict.tree is not None:
                counts["bq.cert_edges"] += len(verdict.tree.edges)

        def report(args, res):
            memo_close()

        return {"tree.face_vertex_at": (None, vertex_at),
                "bq.find_sink": (None, sink),
                "bq.attracting_arc": (None, arc),
                "bq.face_in_level": (None, in_level),
                "markoff._move": (None, move),
                "bq.decide_bq": (memo_open, decide),
                "fib.growth_report": (memo_open, report)}

    # -- render pool workers ---------------------------------------------

    def _worker_task(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def task(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return wrapped(*args, **kwargs)
            tracer.reset()
            result = wrapped(*args, **kwargs)
            tracer._task_seq += 1
            path = os.path.join(tracer.out_dir, "worker-%d-%d-%d.json" % (
                tracer.pid, os.getpid(), tracer._task_seq))
            with open(path, "w") as fh:
                json.dump(tracer.state(), fh)
            return result
        return task

    def state(self):
        return {"pid": os.getpid(), "stats": self.stats,
                "spans": self.spans, "counts": dict(self.counts),
                "maxima": dict(self.maxima)}

    def merge_workers(self):
        """Fold in the state written by forked render workers; returns
        each task's (pid, start, end)."""
        tasks = []
        pattern = os.path.join(self.out_dir, "worker-%d-*.json" % self.pid)
        for path in sorted(glob.glob(pattern)):
            with open(path) as fh:
                st = json.load(fh)
            os.remove(path)
            for name, (calls, total, own) in st["stats"].items():
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += own
            for key, val in st["counts"].items():
                self.counts[key] += val
            for key, val in st["maxima"].items():
                self.maxima[key] = max(self.maxima[key], val)
            for span in st["spans"]:
                self.spans.append(tuple(span) + (st["pid"],))
            tasks.extend((st["pid"], span[2], span[3]) for span in st["spans"]
                         if span[1] == WORKER_TASK)
        return tasks
