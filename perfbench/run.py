"""The bqdomain benchmark.

    python3 perfbench/run.py --workload points --seed 1 --seconds 15 --trace 0

Runs one workload from the repository root, checks every output against
perfbench/frozen.json, prints each metric by name, and prints as its
last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones,
measured on unwrapped code; with --trace 1 they are the per-layer ones
from a run with tracing wrappers installed (see tracing.py).  Load is
one closed-loop client in this process; the only parallelism is
render_slice's own pool.  The seed only permutes the order of
operations within a pass.  Times are scaled to reference machine speed
(see speed.py).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from importlib import metadata

from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(HERE, "frozen.json")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("points", "deep", "slice", "cli")
POINT_CLASSES = {"points": ("easy", "root", "hard"), "deep": ("deep",)}
RENDER_WORKERS = (1, 2)
RENDERS_MIN = 2             # renders per worker count in an untraced run
SETUP_PROBES = 7
BURST_S = 0.003             # speed sample after each points pass (~25 ms)
TRACE_POINT_PASSES = 20     # fixed work, so traced counters repeat exactly
SUBPROCESS_TIMEOUT = 120

clock = time.perf_counter


# -- program calls and their checks --------------------------------------

def make_decider():
    """decide(values, omega) on a fresh MarkoffMap with default BqParams.

    The package functions are looked up through their modules on every
    call, so the traced run's wrappers see them.
    """
    from bqdomain import algebra, bq, markoff

    def decide(values, omega):
        quad = algebra.MarkoffQuad(values, algebra.BoundaryData(omega),
                                   on_variety=False)
        return bq.decide_bq(markoff.MarkoffMap(quad))
    return decide


def point_args(p):
    return (tuple(complex(*v) for v in p["quad"]),
            tuple(complex(*v) for v in p["omega"]))


def summarize(verdict):
    return {"status": verdict.status.value,
            "witness": verdict.witness.kind.value if verdict.witness else None,
            "budget": verdict.budget_hit,
            "cert_edges": len(verdict.tree.edges) if verdict.tree else None}


def histogram(body):
    """Verdict counts from the palette: black InBQ, white Undecided,
    anything else a NotBQ witness colour."""
    hist = {"in_bq": 0, "undecided": 0, "not_bq": 0}
    for k in range(0, len(body), 3):
        px = body[k:k + 3]
        key = "in_bq" if px == b"\0\0\0" else \
            "undecided" if px == b"\xff\xff\xff" else "not_bq"
        hist[key] += 1
    return hist


class Outcome:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, got, want):
        self.attempted += 1
        if got != want:
            self._fail(label, "got %r, want %r" % (got, want))

    def error(self, label, exc):
        self.attempted += 1
        self._fail(label, "raised %r" % (exc,))

    def _fail(self, label, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (label, problem))


def attempt(out, label, fn, args, tracer=None):
    """Run one operation: (result, (start, end)), or (None, None) if it
    raised."""
    t0 = clock()
    try:
        res = tracer.span("op", fn, *args) if tracer else fn(*args)
    except Exception as exc:   # a failed operation, counted and reported
        out.error(label, exc)
        return None, None
    return res, (t0, clock())


# -- set-up ----------------------------------------------------------------

def setup(workload, frozen_path=FROZEN):
    """Imports, inputs and expectations for one workload."""
    with open(frozen_path) as fh:
        frozen = json.load(fh)
    s = types.SimpleNamespace(workload=workload, frozen=frozen)
    if workload == "cli":
        import bqdomain.cli  # noqa: F401  (the imports every command pays)
        s.env = dict(os.environ, PYTHONPATH=SRC)
        s.commands = [(c["name"], c["argv"], c["exit"])
                      for c in frozen["cli"]]
        s.fib_point = point_args(frozen["points"][0])
        return s
    s.decide = make_decider()
    s.warm = [(p["name"], point_args(p), p["expect"])
              for p in frozen["points"] if p["class"] == "easy"]
    if workload == "slice":
        from bqdomain import render
        s.config = render.SliceConfig.from_json(frozen["slice"]["config"])
        s.npx = s.config.px[0] * s.config.px[1]
    else:
        s.points = [(p["name"], p["class"], point_args(p), p["expect"])
                    for p in frozen["points"]
                    if p["class"] in POINT_CLASSES[workload]]
    return s


def setup_seconds(workload):
    """Median set-up time at reference speed over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload], cwd=ROOT, capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# -- operations ------------------------------------------------------------

def decide_point(s, out, name, args, expect, tracer=None):
    verdict, span = attempt(out, name, s.decide, args, tracer)
    if verdict is None:
        return None
    out.check(name, summarize(verdict), expect)
    return span


def warm_up(s, out):
    for name, args, expect in s.warm:
        decide_point(s, out, name, args, expect)


def render_once(s, out, sp, workers, bodies, tracer=None):
    from bqdomain import render
    label = "render_w%d" % workers
    with sp.paused() if workers > 1 else contextlib.nullcontext():
        res, span = attempt(out, label, render.render_slice,
                            (s.config, workers), tracer)
    if res is None:
        raise RuntimeError("%s failed: %s" % (label, out.problems[-1]))
    body = res[0]
    want = s.frozen["slice"]
    out.check(label + " sha256", hashlib.sha256(body).hexdigest(),
              want["sha256"])
    out.check(label + " histogram", histogram(body), want["histogram"])
    for other, other_body in bodies.items():
        if other != workers:
            out.check("render w%d vs w%d bytes" % (workers, other),
                      body == other_body, True)
    bodies[workers] = body
    return span


def cli_subprocess(s, out, name, argv, want):
    t0 = clock()
    try:
        proc = subprocess.run([sys.executable, "-m", "bqdomain.cli"] + argv,
                              env=s.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        out.error(name, exc)
        raise
    out.check(name + " exit", proc.returncode, want)
    return t0, clock()


def cli_in_process(s, out, name, argv, want, tracer=None):
    from bqdomain import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code, span = attempt(out, name, cli.main, (argv,), tracer)
    if span is not None:
        out.check(name + " exit", code, want)


# -- untraced workloads ----------------------------------------------------
#
# Every time is scaled to reference speed by the sampler (speed.py):
# sp.scaled(start, end) is the interval's length on a machine where the
# sampler's probe loop takes its reference time.

def ms(seconds):
    return seconds * 1000.0


def p90_with_tail(values):
    """90th percentile, which needs at least ten samples beyond it."""
    if len(values) < 100:
        raise RuntimeError("p90 needs 100 samples, got %d" % len(values))
    return statistics.quantiles(values, n=10)[8]


def run_points(s, rng, seconds, out, sp):
    for name, _, args, expect in s.points:      # warm-up pass, not timed
        decide_point(s, out, name, args, expect)
    spans = {"easy": [], "root": [], "hard": []}
    passes = []
    deadline = clock() + seconds
    sp.burst(BURST_S)
    while not passes or clock() < deadline:
        order = list(s.points)
        rng.shuffle(order)
        t0 = clock()
        for name, cls, args, expect in order:
            span = decide_point(s, out, name, args, expect)
            if span is not None:
                spans[cls].append(span)
        passes.append((t0, clock()))
        sp.burst(BURST_S)
    easy, hard, root = ([ms(sp.scaled(*span)) for span in spans[cls]]
                        for cls in ("easy", "hard", "root"))
    rate = len(s.points) / statistics.median(sp.scaled(*p) for p in passes)
    report = {
        "decide_easy_ms_p50": (statistics.median(easy), "ms"),
        "decide_easy_ms_p90": (p90_with_tail(easy), "ms"),
        "decide_hard_ms_p50": (statistics.median(hard), "ms"),
        "decide_root_ms_p50": (statistics.median(root), "ms"),
        "points_per_s": (rate, "1/s"),
        "samples_easy_hard_root": (
            "%d/%d/%d" % (len(easy), len(hard), len(root)), ""),
        "passes": (len(passes), "count"),
    }
    return report, (statistics.median(easy), statistics.median(hard), rate)


def run_deep(s, rng, seconds, out, sp):
    warm_up(s, out)
    per_point = {name: [] for name, _, _, _ in s.points}
    pass_means, passes = [], []
    deadline = clock() + seconds
    while not passes or clock() < deadline:
        order = list(s.points)
        rng.shuffle(order)
        times = []
        for name, _, args, expect in order:
            span = decide_point(s, out, name, args, expect)
            if span is not None:
                times.append(sp.scaled(*span))
                per_point[name].append(times[-1])
        passes.append(sum(times))
        pass_means.append(statistics.mean(times) if times else float("nan"))
    faces = [dt for name, _, _, expect in s.points
             if expect["budget"] == "max_faces" for dt in per_point[name]]
    deep_s = statistics.median(pass_means)
    rate = len(s.points) / statistics.median(passes)
    report = {"decide_deep_s": (deep_s, "s"), "passes": (len(passes), "count")}
    for name, times in per_point.items():
        report["decide_s_" + name] = (statistics.median(times), "s")
    return report, (ms(deep_s), ms(statistics.median(faces)), rate)


def run_slice(s, rng, seconds, out, sp):
    warm_up(s, out)
    times = {w: [] for w in RENDER_WORKERS}
    bodies = {}
    deadline = clock() + seconds
    while min(map(len, times.values())) < RENDERS_MIN or clock() < deadline:
        order = list(RENDER_WORKERS)
        rng.shuffle(order)
        for workers in order:
            span = render_once(s, out, sp, workers, bodies)
            times[workers].append(sp.scaled(*span))
    t1, t2 = (statistics.median(times[w]) for w in RENDER_WORKERS)
    report = {"render_px_per_s_w1": (s.npx / t1, "px/s"),
              "render_px_per_s_w2": (s.npx / t2, "px/s"),
              "renders_w1_w2": ("%d/%d" % (len(times[1]), len(times[2])), "")}
    return report, (ms(t1), ms(t2), 2 * s.npx / (t1 + t2))


def run_cli(s, rng, seconds, out, sp):
    name, argv, want = s.commands[0]
    cli_subprocess(s, out, name, argv, want)     # warm-up, not timed
    times = {name: [] for name, _, _ in s.commands}
    deadline = clock() + seconds
    while not times["fib"] or clock() < deadline:
        order = list(s.commands)
        rng.shuffle(order)
        for name, argv, want in order:
            span = cli_subprocess(s, out, name, argv, want)
            times[name].append(sp.scaled(*span))
    check = times["check_in_bq"] + times["check_not_bq"]
    med = {name: statistics.median(t) for name, t in times.items()}
    report = {"check_ms_p50": (ms(statistics.median(check)), "ms"),
              "fib_ms_p50": (ms(med["fib"]), "ms"),
              "samples_check_fib": ("%d/%d" % (len(check), len(times["fib"])),
                                    "")}
    rate = len(s.commands) / sum(med.values())
    return report, (ms(statistics.median(check)), ms(med["fib"]), rate)


UNTRACED = {"points": run_points, "deep": run_deep, "slice": run_slice,
            "cli": run_cli}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@contextlib.contextmanager
def one_core(pin):
    """Pin this process, and the children it starts, to one core: the
    sampler then probes the core that the child runs on."""
    before = os.sched_getaffinity(0)
    if pin:
        os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def untraced(s, rng, seconds, out):
    sampler = Sampler(OUT_DIR, period=None, min_samples=2) \
        if s.workload == "points" else Sampler(OUT_DIR)
    with one_core(s.workload == "cli"), sampler as sp:
        report, (main_ms, second_ms, rate) = UNTRACED[s.workload](
            s, rng, seconds, out, sp)
    report["machine_speed_p50"] = (sp.speed(), "x reference")
    rss = peak_rss_mb()            # before the set-up probes add children
    return report, {"setup_s": setup_seconds(s.workload),
                    "peak_rss_mb": rss, "main_op_ms": main_ms,
                    "second_op_ms": second_ms, "ops_per_s": rate}


# -- traced run ------------------------------------------------------------

def fixed_work(s, rng, out, sp, tracer=None):
    """The traced run's unit of work; returns its (start, end)."""
    t0 = clock()
    if s.workload in ("points", "deep"):
        passes = TRACE_POINT_PASSES if s.workload == "points" else 1
        for _ in range(passes):
            order = list(s.points)
            rng.shuffle(order)
            for name, _, args, expect in order:
                decide_point(s, out, name, args, expect, tracer)
    elif s.workload == "slice":
        bodies = {}
        for workers in RENDER_WORKERS:
            render_once(s, out, sp, workers, bodies, tracer)
            if tracer is not None and workers > 1:
                tracer.merge_workers()
    else:
        for name, argv, want in s.commands:
            cli_in_process(s, out, name, argv, want, tracer)
    return t0, clock()


def render_probe(s, out, sp):
    """w1 and w2 renders with only render-level wrappers: per-pixel time,
    worker busy time, pool balance and scaling.  Returns the metrics and
    the two renders' total time."""
    from tracing import RENDER_FUNCTIONS, Tracer
    if not hasattr(s, "config"):
        from bqdomain import render
        s.config = render.SliceConfig.from_json(s.frozen["slice"]["config"])
    tracer = Tracer(OUT_DIR)
    tracer.install(RENDER_FUNCTIONS)
    try:
        bodies, walls = {}, {}
        for workers in RENDER_WORKERS:
            first = len(tracer.spans)
            walls[workers] = sp.scaled(*render_once(s, out, sp, workers,
                                                    bodies))
            if workers == 1:
                pixel_ms = [ms(sp.scaled(span[2], span[3]))
                            for span in tracer.spans[first:]
                            if span[1] == "render.classify_pixel"]
            else:
                tasks = tracer.merge_workers()
    finally:
        tracer.uninstall()
    busy = {}
    for pid, start, end in tasks:
        busy[pid] = busy.get(pid, 0.0) + sp.scaled(start, end)
    loads = list(busy.values()) + [0.0] * (2 - len(busy))
    return {"render.pixel_ms_p50": statistics.median(pixel_ms),
            "render.pixel_ms_p95": statistics.quantiles(pixel_ms, n=20)[18],
            "render.worker_busy_s_max": max(loads),
            "render.imbalance_w2": max(loads) / statistics.mean(loads),
            "render.idle_frac_w2": 1 - sum(loads) / (2 * walls[2]),
            "render.scaling_eff_w2": walls[1] / walls[2] / 2}, \
        walls[1] + walls[2]


def fib_probe(s, sp):
    """growth_report at depth 8 on a cold map, and the keys it covers."""
    from bqdomain import algebra, fib, markoff
    values, omega = s.fib_point if hasattr(s, "fib_point") \
        else point_args(s.frozen["points"][0])
    times = []
    for _ in range(3):
        quad = algebra.MarkoffQuad(values, algebra.BoundaryData(omega),
                                   on_variety=False)
        t0 = clock()
        fib.growth_report(markoff.MarkoffMap(quad), fib.FibTable(), 8)
        times.append(sp.scaled(t0, clock()))
    regions, faces = fib.keys_to_depth(8)
    return {"fib.growth_report_ms": ms(statistics.median(times)),
            "fib.keys": len(regions) + len(faces)}


def _py(args, env, **kw):
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT, **kw)


def cli_probe():
    """Interpreter start, `import bqdomain.cli`, and numpy's share."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start, imp, numpy = [], [], []
    for _ in range(5):
        t0 = clock()
        _py(["-c", "pass"], env)
        start.append(clock() - t0)
        proc = _py(["-c", "import time; t = time.perf_counter(); "
                    "import bqdomain.cli; "
                    "print(time.perf_counter() - t)"], env)
        imp.append(float(proc.stdout.split()[-1]))
    for _ in range(3):
        proc = _py(["-X", "importtime", "-c", "import bqdomain.cli"], env)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy.append(float(parts[1]) / 1e6)
    return {"cli.python_start_ms": ms(statistics.median(start)),
            "cli.import_ms": ms(statistics.median(imp)),
            "cli.import_numpy_ms": ms(statistics.median(numpy))
            if numpy else 0.0}


def layer_metrics(t, factor):
    """Per-layer figures from the tracer; times scaled by factor."""
    def stat(name, k):
        return t.stats.get(name, (0, 0.0, 0.0))[k] * (factor if k else 1)

    def self_ms(layer):
        return ms(factor * sum(v[2] for k, v in t.stats.items()
                               if k.split(".")[0] == layer))

    c, mx = t.counts, t.maxima
    quad_calls, moves = stat("markoff.quad_at", 0), c["markoff.moves"]
    descent, arcs = stat("bq.find_sink", 1), stat("bq.attracting_arc", 1)
    return {
        "tree.face_vertex_at.calls": stat("tree.face_vertex_at", 0),
        "tree.face_vertex_at.letters": c["tree.face_vertex_at.letters"],
        "tree.canonical_face.calls": stat("tree.canonical_face", 0),
        "tree.face_side_region.calls": stat("tree.face_side_region", 0),
        "tree.self_ms": self_ms("tree"),
        "markoff.quad_at.calls": quad_calls,
        "markoff.moves": moves,
        "markoff.memo_hit_ratio":
            (quad_calls - moves) / quad_calls if quad_calls else 0.0,
        "markoff.memo_entries_max": mx["markoff.memo_entries_max"],
        "markoff.eval_face.calls": stat("markoff.eval_face", 0),
        "markoff.eval_sigma.calls": stat("markoff.eval_sigma", 0),
        "markoff.self_ms": self_ms("markoff"),
        "algebra.lam.calls": stat("algebra.lam", 0),
        "algebra.self_ms": self_ms("algebra"),
        "neighbors.h_star.calls": stat("neighbors.h_star", 0),
        "neighbors.h_value.calls": stat("neighbors.h_value", 0),
        "neighbors.self_ms": self_ms("neighbors"),
        "bq.descent_ms": ms(descent),
        "bq.arc_ms": ms(arcs),
        "bq.closure_ms": ms(stat("bq.decide_bq", 1) - descent - arcs),
        "bq.descent_steps": c["bq.descent_steps"],
        "bq.arcs": stat("bq.attracting_arc", 0),
        "bq.arc_steps": c["bq.arc_steps"],
        "bq.arc_useful_ratio": c["bq.arc_window_edges"] / c["bq.arc_steps"]
        if c["bq.arc_steps"] else 0.0,
        "bq.faces_seen": c["bq.faces_seen"],
        "bq.max_arc_len": mx["bq.max_arc_len"],
        "bq.max_anchor_len": mx["bq.max_anchor_len"],
        "bq.cert_edges": c["bq.cert_edges"],
    }


def traced(s, rng, out):
    from tracing import Tracer
    tracer = Tracer(OUT_DIR)
    with Sampler(OUT_DIR) as sp:
        if s.workload != "cli":
            warm_up(s, out)
        if s.workload == "slice":
            render_m, base_s = render_probe(s, out, sp)
        else:
            if s.workload == "points":
                fixed_work(s, rng, out, sp)      # warm-up pass, not timed
            base_s = sp.scaled(*fixed_work(s, rng, out, sp))
        tracer.install()
        try:
            t0, t1 = fixed_work(s, rng, out, sp, tracer)
        finally:
            tracer.uninstall()
        traced_s = sp.scaled(t0, t1)
        if s.workload != "slice":
            render_m, _ = render_probe(s, out, sp)
        metrics = layer_metrics(tracer, traced_s / (t1 - t0))
        metrics.update(render_m)
        metrics.update(fib_probe(s, sp))
    metrics.update(cli_probe())
    metrics["trace.overhead_frac"] = traced_s / base_s - 1
    report = {"untraced_s": (base_s, "s"), "traced_s": (traced_s, "s"),
              "machine_speed_p50": (sp.speed(), "x reference")}
    trace = {"spans": tracer.spans, "stats": tracer.stats,
             "counts": tracer.counts, "maxima": tracer.maxima}
    return report, metrics, trace


# -- command line ----------------------------------------------------------

def provenance(args):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy_version,
            "git_sha": git_sha(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "render_workers": list(RENDER_WORKERS)
            if args.workload == "slice" or args.trace else None}


def git_sha():
    """HEAD's commit from .git when the checkout has one, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run(args, frozen_path=FROZEN):
    """One benchmark run; returns the result document."""
    t0 = clock()
    s = setup(args.workload, frozen_path)
    setup_inproc = clock() - t0
    out = Outcome()
    rng = random.Random(args.seed)
    if args.trace:
        report, metrics, trace = traced(s, rng, out)
    else:
        report, metrics = untraced(s, rng, args.seconds, out)
        trace = None
    report["setup_inproc_s"] = (setup_inproc, "s")
    report["failed_frac"] = (out.failed / max(out.attempted, 1), "")
    return {"provenance": provenance(args), "report": report,
            "metrics": metrics, "problems": out.problems,
            "attempted": out.attempted, "failed": out.failed,
            "trace": trace}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bqdomain", "__init__.py")):
        print("no bqdomain sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        with Sampler(OUT_DIR) as sp:
            t0 = clock()
            setup(args.workload)
            t1 = clock()
        print(sp.scaled(t0, t1))
        return 0
    doc = run(args)
    for name, (value, unit) in sorted(doc["report"].items()):
        print("%-28s %s %s" % (name, value, unit))
    for problem in doc["problems"]:
        print("FAILED", problem)
    print("provenance", json.dumps(doc["provenance"]))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({k: doc[k] for k in ("provenance", "report", "metrics",
                                       "problems", "attempted", "failed",
                                       "trace")}, fh)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if sorted(units) != sorted(doc["metrics"]):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(doc["metrics"]), sorted(units)))
    result = {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
              "failed": doc["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in doc["metrics"].items()}}
    print(json.dumps(result))
    return 0


def metric_units(kind):
    """Metric name -> unit from BENCHMARK.json's end_to_end or per_layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
