"""Write frozen.json: the benchmark's inputs and their expected outputs.

    python3 perfbench/freeze.py

The inputs are defined below.  Every coordinate is written out as a
literal (fourth coordinates are solved once, here), so later changes to
the solver do not change what the benchmark feeds the program.  The
expectations come from running the current code once: per point the
status, witness kind, budget name and certificate edge count; for the
slice the image sha256 and verdict histogram; for the CLI the exit
codes.  Re-run this only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bqdomain.algebra import BoundaryData, RootChoice, solve_fourth  # noqa: E402
from bqdomain.render import SliceConfig, render_slice  # noqa: E402

import run  # noqa: E402

ZERO = (0.0, 0.0, 0.0)

# The ten test-suite InBQ fixtures: (t, t, t, d), d the smaller root.
EASY_T = [4.0 + 0.5 * k for k in range(10)]

# The ten test-suite NotBQ fixtures, decided at the root vertex.
ROOT_NOT_BQ = [
    ((0.0, 0.0, 0.0, 2.0), ZERO),
    ((1.0, 1.0, 1.0, 0.6180339887498949), ZERO),
    ((1.0, 1.0, 1.0, -1.618033988749895), ZERO),
    ((0.5, 0.5, 0.5, 1.7413587112077265), ZERO),
    ((1.2, 0.3, 0.7, 1.2867547557874297), ZERO),
    ((0.9, 1.1, 0.2, 1.2973527491289583), ZERO),
    ((0.4, 0.8, 1.0, 1.3318444959177214), ZERO),
    ((1.0, 1.0, 0.5, 1.5208993740921255), (0.5, 0.3, 0.1)),
    ((0.6, 0.6, 0.6, 1.807852528298415), (0.2, 0.2, 0.2)),
    ((0.0, 0.0, 1.0, 1.6583123951777), (0.0, 0.5, 0.0)),
]

# Points a on the slice b = c = 3, omega = 0, d = solve_minus.
HARD_A = [-2.25 - 2.25j, 3.75 + 3.75j]          # InBQ, 43 and 39 edges
DEEP_A = [-0.75 + 0.75j, 0.75 - 0.75j, -5.25 + 5.25j]   # Undecided

SLICE = {"fixed": {"b": 3, "c": 3, "d": 0, "x": 0, "y": 0, "z": 0},
         "varying": "a", "center": [0, 0], "width": 12.0, "height": 12.0,
         "px": 16, "mode": "solve_minus", "budgets": {"max_faces": 500}}


def pair(z):
    return [complex(z).real, complex(z).imag]


def point(name, cls, quad, omega):
    return {"name": name, "class": cls, "quad": [pair(v) for v in quad],
            "omega": [pair(v) for v in omega]}


def corpus_points():
    zero = BoundaryData(ZERO)
    pts = []
    for t in EASY_T:
        d = solve_fourth(t, t, t, zero, RootChoice.MINUS).real
        pts.append(point("easy_t%.1f" % t, "easy", (t, t, t, d), ZERO))
    for k, (quad, omega) in enumerate(ROOT_NOT_BQ):
        pts.append(point("root_%d" % k, "root", quad, omega))
    for cls, values in (("hard", HARD_A), ("deep", DEEP_A)):
        for a in values:
            d = solve_fourth(a, 3, 3, zero, RootChoice.MINUS)
            pts.append(point("%s_a%+g%+gj" % (cls, a.real, a.imag), cls,
                             (a, 3, 3, d), ZERO))
    return pts


def cli_commands(pts):
    def coords(p):     # plain reals, so argparse reads "-63.3" as a value
        return [repr(re) if im == 0 else "%r,%r" % (re, im)
                for re, im in p["quad"] + p["omega"]]
    easy, root = pts[0], pts[len(EASY_T)]
    return [{"name": "check_in_bq", "argv": ["check"] + coords(easy)},
            {"name": "check_not_bq", "argv": ["check"] + coords(root)},
            {"name": "fib", "argv": ["fib"] + coords(easy)
             + ["--depth", "8"]}]


def main():
    pts = corpus_points()
    decide = run.make_decider()
    for p in pts:
        p["expect"] = run.summarize(decide(*run.point_args(p)))
        print(p["name"], p["expect"], flush=True)
    body, _ = render_slice(SliceConfig.from_json(SLICE), workers=1)
    slice_doc = {"config": SLICE,
                 "sha256": hashlib.sha256(body).hexdigest(),
                 "histogram": run.histogram(body)}
    print("slice", slice_doc["sha256"], slice_doc["histogram"], flush=True)
    cmds = cli_commands(pts)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "bqdomain.cli"]
                              + cmd["argv"], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=120)
        cmd["exit"] = proc.returncode
        print(cmd["name"], cmd["exit"], flush=True)
    with open(os.path.join(HERE, "frozen.json"), "w") as fh:
        json.dump({"points": pts, "slice": slice_doc, "cli": cmds}, fh,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
