"""The closure's per-face step on plain values.

``attracting_arc`` steps with one ``moved_value`` per edge, ``h_star``
reads the lambdas from ``lam_rows`` and evaluates H on plain values,
and the canonical keys strip their trailing letters with
``str.rstrip``.  These tests hold each of them bitwise to the
references: one ``move_reference`` per arc step, ``lam`` calls and
``HInputs``, and per-letter loops, on made-up quads and, for H*, on the
anchor quad of every face the closure pops on the frozen points.  Where
the references' H* is NaN from overflow, the threshold now raises and
the arc ends with OVERFLOW.
The window screen in ``decide_bq``, ``values_in_level`` written out on
the carried moduli, is pinned by the faces the closure pops (see
``test_carried_decide``); here one made-up window checks that a face
value past the overflow cap is never in level.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from bqdomain import bq
from bqdomain.algebra import BoundaryData, MarkoffQuad
from bqdomain.bq import ArcOutcome, ArcResult, BqParams, attracting_arc
from bqdomain.markoff import HUGE, OVERFLOW_CAP, MarkoffMap
from bqdomain.neighbors import WitnessKind, face_obstruction, h_star
from bqdomain.tree import (COLORS, FACE_PAIRS, FaceKey, canonical_face,
                           canonical_region)

from conftest import random_on_variety_point
from oracles import (HInputs, attracting_arc_reference,
                     canonical_face_reference, canonical_region_reference,
                     face_h_inputs_reference, h_star_reference,
                     h_value_reference, h_value_sym, values_in_level)


def same(x, y) -> bool:
    """Bitwise equality by repr, which tells -0.0 from 0.0 and matches NaN
    with NaN."""
    return repr(x) == repr(y)


def random_complex(rng, scale):
    return complex(*rng.uniform(-scale, scale, 2))


def kernel_cases(seed: int = 31):
    """(name, omega, quad) triples: random on-variety and raw quads, and
    quads built to hit each special branch of the step: a face value on
    the band, a vanishing sigma, a zero region value, entries near the
    overflow cap (5e149, 1e149), and a HUGE slot."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(40):
        pt = random_on_variety_point(rng)
        cases.append(("variety", pt.omega.omega, pt.quad))
    for _ in range(10):
        omega = tuple(random_complex(rng, 2.0) for _ in range(3))
        cases.append(("raw", omega,
                      tuple(random_complex(rng, 6.0) for _ in range(4))))
    zero = (0j, 0j, 0j)
    for t in (0.5, 1.0, 1.5, -1.9, 0.0):
        cases.append(("band", zero, (1 + 0j, complex(t), 7 + 1j, 5 - 2j)))
    for c in (0j, 1 + 1j, 4 - 3j):
        cases.append(("sigma_zero", zero, (3 + 0j, cmath.sqrt(-5), c, 2j)))
    for slot in range(4):
        quad = [5 + 1j, -4 + 2j, 6 - 1j, 3 + 3j]
        quad[slot] = 0j
        cases.append(("zero_region", (5 + 0j, 5 + 0j, 5 + 0j), tuple(quad)))
    for big in (5e149, 1e149):
        for slot in range(4):
            quad = [1 + 0.5j, 0.3 - 1j, 2 + 0j, 0.7j]
            quad[slot] = complex(big, big / 3)
            cases.append(("near_cap", zero, tuple(quad)))
        cases.append(("near_cap", (1 + 0j, 2 + 0j, 0.5j),
                      tuple(complex(big * rng.uniform(0.1, 1), 1.0)
                            for _ in range(4))))
    for slot in range(4):
        quad = [3 + 1j, 4 - 1j, -5 + 2j, 6 + 0j]
        quad[slot] = HUGE
        cases.append(("huge_slot", zero, tuple(quad)))
    return cases


def kernel_map(omega, quad) -> MarkoffMap:
    finite = tuple(0j if v is HUGE else v for v in quad)
    return MarkoffMap(MarkoffQuad(finite, BoundaryData(omega),
                                  on_variety=False))


def call(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("params", [
    BqParams(),
    BqParams(K=9.0, max_arc_steps=40),
], ids=["default", "short_budget"])
def test_arc_and_h_star_match_the_references(params):
    faces = overflowed = 0
    seen = {}         # case name -> arc outcomes, and "raised" for h_star
    for name, omega, quad in kernel_cases():
        m = kernel_map(omega, quad)
        K = params.level(m)
        for i, j in FACE_PAIRS:
            f = FaceKey("", (i, j))
            got = call(h_star, m.boundary, f, quad, K)
            want = call(h_star_reference, m.boundary, f, quad, K)
            # A face value past the cap raises in h_star, under the arc.
            arc = call(attracting_arc, m, f, quad, K, params.max_arc_steps)
            ref = call(attracting_arc_reference, m, f, quad, params)
            faces += 1
            if same(want, math.nan):
                # The reference's H* left float range as NaN and walked
                # an arc on it; the threshold now raises OverflowError
                # and the arc ends at once with OVERFLOW.
                assert got[:2] == ("raised", OverflowError), (name, f)
                assert arc == (ArcOutcome.OVERFLOW, 0, -1, 0, []), (name, f)
                assert name == "near_cap"
                overflowed += 1
            else:
                assert same(got, want), (name, f, got, want)
                assert same(arc, ref), (name, f)
            seen.setdefault(name, set()).add(arc[0])
            if isinstance(got, tuple):
                seen[name].add("raised")
            if arc[0] is ArcOutcome.FINITE and any(HUGE in q for q in arc[4]):
                seen[name].add("huge_in_window")
    assert faces >= 300
    assert overflowed == 21
    infinite = ArcOutcome.INFINITE
    for name in ("band", "sigma_zero", "zero_region"):
        assert infinite in seen[name], name
    assert {ArcOutcome.OVERFLOW, ArcOutcome.FINITE, "raised",
            "huge_in_window"} <= seen["near_cap"]
    assert seen["huge_slot"] == {ArcOutcome.OVERFLOW, "raised"}
    assert ArcOutcome.FINITE in seen["variety"]
    if params.max_arc_steps < 100:
        assert ArcOutcome.BUDGET in seen["variety"] | seen["raw"]


def near_cap_omega_cases(seed: int = 37, count: int = 60):
    """(omega, quad) pairs: a random omega != 0, which makes
    Q != R and so tells the two orderings of each face apart, and one or
    two entries near the overflow cap, where the references' H* is NaN
    on some faces.  They are kept out of ``kernel_cases``, whose test
    counts the NaN faces of its own cases."""
    rng = np.random.default_rng(seed)
    cases = []
    for n in range(count):
        omega = tuple(random_complex(rng, 2.0) for _ in range(3))
        quad = [random_complex(rng, 6.0) for _ in range(4)]
        for slot in rng.choice(4, 1 + n % 2, replace=False):
            quad[slot] = complex(rng.uniform(1e149, 8e149),
                                 rng.uniform(-4e149, 4e149))
        cases.append((omega, tuple(quad)))
    return cases


@pytest.mark.parametrize("params", [
    BqParams(),
    BqParams(K=9.0, max_arc_steps=40),
], ids=["default", "short_budget"])
def test_near_cap_omega_faces_match_the_two_ordering_references(params):
    """H* and the arc bitwise against the references on
    ``near_cap_omega_cases``, raised errors included.  Where the
    two-ordering ``h_star_reference`` reads NaN, ``h_star`` raises the
    error that ``h_value_sym``, the two-ordering rule on the face's
    (Q, R, S, X), raises, and the arc ends at once with OVERFLOW."""
    counts = {"finite": 0, "raised": 0, "nan": 0}
    for omega, quad in near_cap_omega_cases():
        m = kernel_map(omega, quad)
        K = params.level(m)
        for i, j in FACE_PAIRS:
            f = FaceKey("", (i, j))
            got = call(h_star, m.boundary, f, quad, K)
            want = call(h_star_reference, m.boundary, f, quad, K)
            arc = call(attracting_arc, m, f, quad, K, params.max_arc_steps)
            if same(want, math.nan):
                inp = face_h_inputs_reference(m.boundary, quad, i, j)
                assert got[:2] == ("raised", OverflowError), (f, quad)
                assert same(got, call(h_value_sym, inp)), (f, quad)
                assert arc == (ArcOutcome.OVERFLOW, 0, -1, 0, []), (f, quad)
                counts["nan"] += 1
                continue
            assert same(got, want), (f, quad, got, want)
            ref = call(attracting_arc_reference, m, f, quad, params)
            assert same(arc, ref), (f, quad)
            counts["raised" if isinstance(got, tuple) else "finite"] += 1
    assert min(counts.values()) >= 20, counts


def test_h_star_matches_the_reference_on_closure_pops(monkeypatch):
    """H* bitwise, raised errors included, at the anchor quad of every
    face the closure pops on the 25 frozen points of
    ``test_carried_decide``: the (Q, R, S, X) and multiplier that
    ``h_star`` computes on these quads are otherwise pinned only through
    the windows they bound.  Every one of these H* is finite, so each
    pop reaches the recurrence, where ``h_star`` evaluates one threshold
    per face and the reference both orderings."""
    from test_carried_decide import frozen_maps
    walk, pops = bq.attracting_arc, []

    def recording(m, f, quad, K, max_steps):
        pops.append((m.boundary, f, quad, K))
        return walk(m, f, quad, K, max_steps)
    monkeypatch.setattr(bq, "attracting_arc", recording)
    for make in frozen_maps():
        bq.decide_bq(make.values[0]())
    finite = 0
    for boundary, f, quad, K in pops:
        got = call(h_star, boundary, f, quad, K)
        want = call(h_star_reference, boundary, f, quad, K)
        assert same(got, want), ((f.anchor, f.colors), quad, got, want)
        finite += not isinstance(got, tuple) and math.isfinite(got)
    assert len(pops) == 14138 and finite == len(pops)


def test_the_band_and_sigma_cases_are_obstructed():
    kinds = {}
    for name, omega, quad in kernel_cases():
        bd = BoundaryData(omega)
        for i, j in FACE_PAIRS:
            if HUGE not in (quad[i - 1], quad[j - 1]):
                _, kind = face_obstruction(bd, i, j, quad[i - 1], quad[j - 1])
                kinds.setdefault(name, set()).add(kind)
    assert WitnessKind.BQ1_VIOLATION in kinds["band"]
    assert WitnessKind.SIGMA_ZERO in kinds["sigma_zero"]


def h_inputs(seed: int = 5):
    """500 inputs: random complex and real ones, X on or next to the band
    (where |lam| is one), and inputs whose mode product num vanishes."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(380):
        out.append(HInputs(*(random_complex(rng, 5.0) for _ in range(4))))
    for _ in range(40):
        out.append(HInputs(*rng.uniform(-6, 6, 4)))
    for _ in range(30):
        x = complex(rng.uniform(-2, 2), 0.0)
        out.append(HInputs(random_complex(rng, 3.0),
                           random_complex(rng, 3.0), random_complex(rng, 3.0),
                           x))
    for x in (2.0, -2.0, 0.0, 2 + 1e-13j, 1.0000001e-12j, 2.0000000000001):
        out.append(HInputs(1.0, -2.0, 0.5, x))
    for _ in range(44):
        x = random_complex(rng, 5.0)
        out.append(HInputs(0.0, 0.0, 0.0, x))
    return out


def test_threshold_matches_the_reference_on_both_orderings():
    """``neighbors._threshold``, through ``oracles.h_value_sym``, against
    ``h_value_reference``, which computes H afresh, over both orderings:
    bitwise on every input, the infinite ones included."""
    inputs = h_inputs()
    assert len(inputs) == 500
    infinite = 0
    for inp in inputs:
        swapped = HInputs(inp.R, inp.Q, inp.S, inp.X)
        want = max(h_value_reference(inp), h_value_reference(swapped))
        got = h_value_sym(inp)
        assert same(got, want), inp
        infinite += math.isinf(got)
    assert infinite >= 80


def reduced_words_up_to(n):
    yield ""
    level = [""]
    for _ in range(n):
        level = [w + c for w in level for c in "1234"
                 if not w or c != w[-1]]
        yield from level


def seeded_words(seed: int = 17, count: int = 200):
    """Reduced words of 50 to 5000 letters, half of them ending in a long
    two-letter alternation, so that a face key strips a long run."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(count):
        length = int(rng.integers(50, 5001))
        letters = [int(rng.integers(1, 5))]
        while len(letters) < length:
            c = int(rng.integers(1, 5))
            if c != letters[-1]:
                letters.append(c)
        if n % 2:
            a = letters[-1]
            b = next(c for c in COLORS if c != a)
            tail = int(rng.integers(1, length))
            letters[-tail:] = [(a, b)[t & 1] for t in range(tail)]
        out.append("".join(map(str, letters)))
    return out


def test_rstrip_keys_match_the_loops():
    words = list(reduced_words_up_to(6)) + seeded_words()
    assert len(words) == 1457 + 200
    long_strips = 0
    for v in words:
        for c in COLORS:
            assert canonical_region(v, c) == canonical_region_reference(v, c)
        for i, j in itertools.permutations(COLORS, 2):
            got = canonical_face(v, i, j)
            assert got == canonical_face_reference(v, i, j)
            long_strips += len(v) - len(got.anchor) >= 50
    assert long_strips > 0


def test_window_face_value_past_the_cap_is_not_in_level(monkeypatch):
    """At K = 1e100 the regions 1e85 and 1e85 are below K, and their face
    value, about 1e170, is below K*K + M but past the overflow cap: it
    is HUGE, never in level.  No arc is finite at so high a K, so the
    first popped face gets a made-up window of two vertices and every
    later pop an empty finite arc, which queues nothing; so every queued
    face pops, and the stub reads the node and colors of each."""
    m = kernel_map((0j, 0j, 0j), (1e85 + 0j, 1e85 + 0j, 3 + 0j, 3 + 0j))
    params = BqParams(K=1e100)
    K, b = params.level(m), m.boundary
    q0 = m.root
    window = [q0, m._move(q0, 1)]
    for quad in window:
        assert max(abs(quad[0]), abs(quad[1])) < K
        assert OVERFLOW_CAP < abs(quad[0] * quad[1]) < K * K
    popped = []

    def arc(m, f, quad, K, max_steps):
        popped.append((f.node, f.colors))
        if len(popped) == 1:
            return ArcResult(ArcOutcome.FINITE, n1=0, n2=0, steps=2,
                             quads=window)
        return ArcResult(ArcOutcome.FINITE, n1=0, n2=-1, steps=1,
                         quads=[quad])
    monkeypatch.setattr(bq, "attracting_arc", arc)
    verdict = bq.decide_bq(m, params)
    assert verdict.status is bq.Status.IN_BQ
    seeds = [p for p in FACE_PAIRS if values_in_level(
        q0[p[0] - 1], q0[p[1] - 1], b.lam(*p), K, b.M)]
    sink = popped[0][0]
    assert popped[0] == (sink, seeds[-1]) and (1, 2) not in seeds
    # The seeds pop last in, first out, after the faces of the window.
    assert [p for x, p in popped if x == sink] == seeds[::-1]
    assert [x for x, _ in popped if x != sink], "the window queued no face"
    assert (1, 2) not in [p for _, p in popped]
