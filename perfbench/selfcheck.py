"""Checks the benchmark's checker and its deterministic counters.

    python3 perfbench/selfcheck.py [workload ...]     (default: all four)

For each workload:

1. A run against a copy of frozen.json with one deliberately wrong
   expectation must report failed operations (failed_frac > 0).
2. Two traced runs with different seeds must give identical values for
   every deterministic per-layer counter.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import run

# Per-layer metrics derived from counts only; the rest are times.
COUNT_RATIOS = {"markoff.memo_hit_ratio", "bq.arc_useful_ratio"}


def corrupt(frozen, workload):
    """A copy of frozen.json with one expectation of the workload wrong."""
    bad = copy.deepcopy(frozen)
    if workload == "slice":
        bad["slice"]["histogram"]["in_bq"] += 1
    elif workload == "cli":
        bad["cli"][0]["exit"] = 3
    else:
        cls = "easy" if workload == "points" else "deep"
        point = next(p for p in bad["points"] if p["class"] == cls)
        point["expect"]["status"] = "not_bq"
    return bad


def wrong_expectation_fails(workload):
    with open(run.FROZEN) as fh:
        bad = corrupt(json.load(fh), workload)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    path = os.path.join(run.OUT_DIR, "frozen-wrong-%s.json" % workload)
    with open(path, "w") as fh:
        json.dump(bad, fh)
    args = run.parse_args(["--workload", workload, "--seconds", "1"])
    doc = run.run(args, frozen_path=path)
    os.remove(path)
    frac = doc["failed"] / doc["attempted"]
    print("%s: wrong expectation -> failed_frac %.4f (%d/%d)"
          % (workload, frac, doc["failed"], doc["attempted"]))
    return frac > 0


def counters_repeat(workload):
    units = run.metric_units("per_layer")
    runs = []
    for seed in (1, 2):
        subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--trace", "1"], cwd=run.ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        path = os.path.join(run.OUT_DIR, "%s-seed%d-trace1.json"
                            % (workload, seed))
        with open(path) as fh:
            runs.append(json.load(fh)["metrics"])
    names = [n for n, u in units.items() if u == "count" or n in COUNT_RATIOS]
    diff = [n for n in names if runs[0][n] != runs[1][n]]
    print("%s: %d deterministic counters, %d differ %s"
          % (workload, len(names), len(diff), diff))
    return not diff


def main(argv):
    workloads = argv or list(run.WORKLOADS)
    sys.path.insert(0, run.SRC)
    ok = True
    for workload in workloads:
        ok &= wrong_expectation_fails(workload)
        ok &= counters_repeat(workload)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
