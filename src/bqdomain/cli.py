"""Command-line interface: point checks, slice rendering, growth
diagnostics, and the involution-identity verification report.

Each of ``render``, ``fib`` and ``torelli`` is imported by the one
command that runs it, so ``check`` pays for none of them.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .algebra import CharacterPoint, MarkoffQuad, residual_modulus
from .bq import BqParams, Status, decide_bq
from .markoff import MarkoffMap

EXIT_IN_BQ = 0
EXIT_NOT_BQ = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64


def parse_complex(s: str) -> complex:
    """Accepts 're,im' pairs or plain Python literals like '1.5' / '2j'."""
    try:
        if "," in s:
            re, im = s.split(",")
            return complex(float(re), float(im))
        return complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("bad complex value %r" % s) from exc


def _map_for(pt: CharacterPoint) -> MarkoffMap:
    return MarkoffMap(MarkoffQuad(pt.quad, pt.omega, on_variety=False))


def cmd_check(args) -> int:
    pt = CharacterPoint(*args.coords)
    verdict = decide_bq(_map_for(pt), BqParams(K=args.k))
    residual = residual_modulus(pt.quad, pt.omega)
    if residual < math.inf:
        print("residual: %.3g" % residual)
    else:
        print("residual: not finite (a coordinate is too large)")
    if verdict.status is Status.IN_BQ:
        print("verdict: InBQ")
        print("certificate: %d faces, %d edges"
              % (len(verdict.tree.arc_bounds), len(verdict.tree.edges)))
        return EXIT_IN_BQ
    if verdict.status is Status.NOT_BQ:
        w = verdict.witness
        print("verdict: NotBQ (%s)" % w.kind.value)
        print("witness face: %r" % (w.face,))
        if w.value is not None:
            print("witness value: %r" % (w.value,))
        return EXIT_NOT_BQ
    print("verdict: Undecided (budget: %s)" % verdict.budget_hit)
    return EXIT_UNDECIDED


def cmd_render(args) -> int:
    from .render import load_config, render_to_file
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    try:
        config = load_config(args.config)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        print("bad config: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    worst = render_to_file(config, args.out, workers=args.threads)
    print("wrote %s (max residual %.3g)" % (args.out, worst))
    return 0


def cmd_fib(args) -> int:
    from .fib import FibTable, growth_report
    pt = CharacterPoint(*args.coords)
    report = growth_report(_map_for(pt), FibTable(), args.depth)
    print("base region values: 1 1 1, end regions: 3 3, base faces: 2 2 2")
    print("kappa_lower: %.6f" % report.kappa_lower)
    print("kappa_upper: %.6f" % report.kappa_upper)
    print("argmin: %r" % (report.argmin,))
    return 0


def cmd_torelli(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    from .torelli import (IDENTITY_FACTORS, MAGNUS, character_agree,
                          equal_in_out, factored)
    worst = 0.0
    for name in sorted(MAGNUS):
        f = factored(name)
        dev = character_agree(MAGNUS[name], f, trials=args.trials,
                              seed=args.seed)
        ok = equal_in_out(MAGNUS[name], f)
        worst = max(worst, dev)
        print("%s = %s: conjugate=%s, trace deviation %.3g"
              % (name, " * ".join("tau_" + t for t in
                                  IDENTITY_FACTORS[name]), ok, dev))
    print("max deviation: %.3g" % worst)
    return 0 if worst <= 1e-8 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bqdomain",
        description="Membership tests and slice renders for the Bowditch "
                    "domain on the trace variety of the three-holed "
                    "projective plane.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide membership for one point")
    c.add_argument("coords", nargs=7, type=parse_complex,
                   metavar="COORD", help="a b c d x y z as re,im pairs")
    c.add_argument("--k", type=float, default=None,
                   help="level threshold (default 2+M)")
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("render", help="render a parameter slice to PPM")
    r.add_argument("--config", required=True, help="JSON slice config")
    r.add_argument("--out", required=True, help="output PPM path")
    r.add_argument("--threads", type=int, default=1)
    r.set_defaults(fn=cmd_render)

    f = sub.add_parser("fib", help="growth diagnostics for one point")
    f.add_argument("coords", nargs=7, type=parse_complex, metavar="COORD")
    f.add_argument("--depth", type=int, default=6)
    f.set_defaults(fn=cmd_fib)

    t = sub.add_parser("torelli", help="verify the generator identities")
    t.add_argument("--trials", type=int, default=200)
    t.add_argument("--seed", type=int, default=7)
    t.set_defaults(fn=cmd_torelli)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
