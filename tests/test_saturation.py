"""Overflow: one saturation rule and one exit.

HUGE is the complex number with both parts infinite, and + - and *
never make an infinite or NaN part finite again, so ``_cap`` of every
formula with a HUGE operand is HUGE without a check of its own; these
tests hold ``MarkoffMap._move`` and the capped face value and sigma to
the rule written out.  A threshold that leaves float range raises in
``h_star`` and ends the arc walk with OVERFLOW, so a decision never
rests on an overflowed H*: the
reproducers below, and a seeded sweep of extreme raw inputs, end as
Undecided/``overflow`` or with a verdict whose certificate holds.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from bqdomain import bq, cli, neighbors
from bqdomain.algebra import (BoundaryData, CharacterPoint, MarkoffQuad,
                              face_value, moved_value, sigma)
from bqdomain.bq import (ArcOutcome, BqParams, Status, attracting_arc,
                         decide_bq)
from bqdomain.markoff import HUGE, MarkoffMap, _cap
from bqdomain.neighbors import WitnessKind, face_obstruction, h_star
from bqdomain.tree import COLORS, FACE_PAIRS, FaceKey

from conftest import random_on_variety_point
from oracles import KeyedMap, face_h_inputs_reference, move_reference


def same(x, y) -> bool:
    """Bitwise equality by repr, which tells -0.0 from 0.0."""
    return repr(x) == repr(y)


# Finite operands, complex, float and int, zeros of both signs among them.
OPERANDS = (0, 0.0, -0.0, 0j, -0j, 1, -1.0, 2.5, 1e149 - 3j, 0.5j, -1 + 1j)


def test_a_huge_operand_caps_to_huge():
    assert abs(HUGE) == math.inf and _cap(HUGE) is HUGE
    for v in (0 * HUGE, -0.0 * HUGE, HUGE * 0j, HUGE - HUGE, HUGE * -HUGE):
        assert math.isnan(v.real) or math.isnan(v.imag), v
        assert _cap(v) is HUGE
    # Each non-empty set of HUGE slots, every other operand and lambda x.
    for x in OPERANDS:
        for slots in list(subsets(4))[1:]:
            vals = with_huge((x,) * 4, slots)
            for i in COLORS:
                terms = tuple(v for j in COLORS if j != i for v in (j - 1, x))
                assert _cap(moved_value(vals, i, terms)) is HUGE, (x, slots)
        for slots in list(subsets(3))[1:]:
            ai, aj, psi = with_huge((x,) * 3, slots)
            assert _cap(sigma(ai, aj, psi, x, x, x)) is HUGE, (x, slots)
            assert _cap(face_value(ai, aj, x)) is HUGE or slots == (2,)


def quads(seed: int = 3):
    """Random on-variety quads and raw ones, with their boundary data."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(6):
        pt = random_on_variety_point(rng)
        out.append((pt.omega, pt.quad))
    for _ in range(4):
        omega = BoundaryData(tuple(complex(*rng.uniform(-3, 3, 2))
                                   for _ in range(3)))
        out.append((omega, tuple(complex(*rng.uniform(-6, 6, 2))
                                 for _ in range(4))))
    out.append((BoundaryData((1.0, 2.0, 0.5j)),
                (3e149 + 0j, 2e149 + 0j, 1.5, -0.5j)))
    return out


def with_huge(quad, slots):
    return tuple(HUGE if n in slots else v for n, v in enumerate(quad))


def subsets(n):
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1))


def test_move_is_the_explicit_rule():
    for omega, quad in quads():
        m = MarkoffMap(MarkoffQuad(quad, omega, on_variety=False))
        for slots in subsets(4):
            vals = with_huge(quad, slots)
            for c in COLORS:
                got = m._move(vals, c)
                assert same(got, move_reference(m, vals, c)), (slots, c)
                assert got[c - 1] is HUGE or not slots


def test_face_value_and_sigma_are_the_explicit_rule():
    for omega, quad in quads():
        for i, j in FACE_PAIRS:
            k = next(c for c in COLORS if c not in (i, j))
            lam = omega.lam(i, j), omega.lam(i, k), omega.lam(j, k)
            for slots in subsets(3):
                ai, aj, psi = with_huge(
                    (quad[i - 1], quad[j - 1],
                     face_value(quad[i - 1], quad[j - 1], lam[0])), slots)
                want = HUGE if HUGE in (ai, aj) \
                    else _cap(face_value(ai, aj, lam[0]))
                got = _cap(face_value(ai, aj, lam[0]))
                assert same(got, want), (i, j, slots)
                assert got is HUGE or not {0, 1} & set(slots)
                want = HUGE if HUGE in (ai, aj, psi) \
                    else _cap(sigma(ai, aj, psi, *lam))
                got = _cap(sigma(ai, aj, psi, *lam))
                assert same(got, want), (i, j, slots)
                assert got is HUGE or not slots


def fake_threshold(raising):
    """A ``_threshold`` whose ordering with Q in ``raising`` overflows
    and whose other ordering has no threshold (num == 0)."""
    def threshold(Q, R, S, X, al, denom):
        if Q in raising:
            raise OverflowError("the threshold H overflowed")
        return 0j, 0j, math.inf, math.inf
    return threshold


# A face (1, 2) off the band, with no zero region and Q != R, so that
# each ordering of its recurrence is told apart by its Q.
ORDER_OMEGA = BoundaryData((1.0, 0.5, -0.3))
ORDER_QUAD = (3 + 2j, 2 - 1j, 4 + 1j, -5 + 0.5j)


def order_qs():
    inp = face_h_inputs_reference(ORDER_OMEGA, ORDER_QUAD, 1, 2)
    assert inp.Q != inp.R
    return inp.Q, inp.R


def order_h_star():
    return h_star(ORDER_OMEGA, FaceKey("", (1, 2)), ORDER_QUAD,
                  2 + ORDER_OMEGA.M)


def threshold_orderings(boundary, f, quad):
    """The orderings (Q, R) of the face's recurrence that ``h_star`` may
    hand to ``_threshold``: none when it stops before the recurrence (a
    HUGE value, a band or sigma face, a zero region, a multiplier of
    modulus one, or an eta numerator too large for abs), else the ones
    whose numerator 2Q - XR is NaN, else the one whose numerator is the
    larger in modulus, (Q, R) on a tie."""
    i, j = f.colors
    ai, aj = quad[i - 1], quad[j - 1]
    psi, kind = face_obstruction(boundary, i, j, ai, aj)
    if psi is HUGE or HUGE in quad or kind is not None \
            or min(abs(ai), abs(aj)) == 0:
        return []
    Q, R, _, X = face_h_inputs_reference(boundary, quad, i, j)
    mu = X * X - 2
    root = cmath.sqrt(mu * mu - 4)
    lam = (mu + root) / 2
    if abs(lam) < 1:
        lam = (mu - root) / 2
    if abs(lam) <= 1 + 1e-12:
        return []
    try:
        nums = {(Q, R): abs(2 * Q - X * R), (R, Q): abs(2 * R - X * Q)}
    except OverflowError:
        return []
    nan = [qr for qr, n in nums.items() if math.isnan(n)]
    return nan or [max(nums, key=nums.get)]


# Faces (1, 2) whose eta numerator is NaN in one ordering only.  With
# lambda_jk = 1e300, a region value 1e10 at color 1 makes R infinite and
# 2R - XQ = (inf - inf) + 0j, while |2Q - XR| is inf; at color 2 it does
# the same with Q and R swapped.
NAN_OMEGA = BoundaryData((0.5, 1e300, 1.0))
NAN_QUADS = ((1e10 + 0j, 1 + 0j, 2 + 0j, 3 + 0j),
             (1 + 0j, 1e10 + 0j, 2 + 0j, 3 + 0j))


def test_one_threshold_per_face_on_the_larger_numerator(monkeypatch):
    """``h_star`` calls ``_threshold`` once for each face that reaches the
    recurrence, on the ordering with the larger eta numerator, or on a
    NaN one, and never for a face that stops before it: on every face of
    the two-ordering quad, the NaN quads and the root quads of
    ``extreme_inputs``."""
    calls, threshold = [], neighbors._threshold

    def recording(Q, R, *rest):
        calls.append((Q, R))
        return threshold(Q, R, *rest)
    monkeypatch.setattr(neighbors, "_threshold", recording)
    faces = [(ORDER_OMEGA, ORDER_QUAD, 2 + ORDER_OMEGA.M)]
    faces += [(NAN_OMEGA, quad, None) for quad in NAN_QUADS]
    faces += [(quad.boundary, MarkoffMap(quad).root, K)
              for quad, K in extreme_inputs()]
    chosen = {"(Q, R)": 0, "(R, Q)": 0, "NaN": 0, "none": 0}
    for boundary, quad, K in faces:
        for p in FACE_PAIRS:
            f = FaceKey("", p)
            want = threshold_orderings(boundary, f, quad)
            calls.clear()
            try:
                h_star(boundary, f, quad, K if K is not None
                       else 2 + boundary.M)
            except (ValueError, ArithmeticError):
                pass
            if not want:
                assert calls == [], (boundary, quad, p)
                chosen["none"] += 1
                continue
            assert len(calls) == 1 and repr(calls[0]) in map(repr, want), \
                (boundary, quad, p, calls, want)
            i, j = p
            inp = face_h_inputs_reference(boundary, quad, i, j)
            if math.isnan(abs(2 * calls[0][0] - inp.X * calls[0][1])):
                chosen["NaN"] += 1
            else:
                chosen["(Q, R)" if same(calls[0], inp[:2]) else "(R, Q)"] += 1
    assert min(chosen.values()) >= 2, chosen


def test_overflow_in_both_orderings_raises(monkeypatch):
    monkeypatch.setattr(neighbors, "_threshold",
                        fake_threshold(set(order_qs())))
    with pytest.raises(OverflowError):
        order_h_star()


def test_an_overflowed_level_term_ends_the_arc_with_overflow():
    # |a_1| = 1e-308 puts (K^2 + 2M)/|a_1| past float range, while the
    # face value 5 is off the band and H of the recurrence is finite.
    omega = BoundaryData((-5.0, 0.0, 0.0))
    quad = (1e-308 + 0j, 3 + 0j, 5 + 1j, 7 - 2j)
    f = FaceKey("", (1, 2))
    assert face_obstruction(omega, 1, 2, quad[0], quad[1])[1] is None
    with pytest.raises(OverflowError):
        h_star(omega, f, quad, 2 + omega.M)
    m = MarkoffMap(MarkoffQuad(quad, omega, on_variety=False))
    assert attracting_arc(m, f, m.root, BqParams().level(m),
                          BqParams().max_arc_steps).outcome \
        is ArcOutcome.OVERFLOW


# Inputs whose threshold leaves float range.  Without the overflow exit
# (a) read NotBQ/infinite_arc from an H* of inf (S*(X^2-4) overflows),
# (b) raised ZeroDivisionError (T underflows to 0), and (c) read InBQ
# over seven faces whose H* was NaN, each closed with an empty arc.
REPRODUCERS = {
    "a": ["100", "100", "9e149", "9e149", "0", "0", "0", "--k", "200"],
    "b": ["--", "-1.6346444102376137e+19,1.3378881481550449e+19",
          "64496963235.79626,-24224752878.960495",
          "-1.8276001829109488e+52,-2.696569189657723e+52",
          "-13.625640618982365,0",
          "-5.564727521093168e+49,-1.6540955749279314e+48",
          "7.827725727027003e+46,0",
          "-9.988835006633946e+26,1.5028028365278678e+27"],
    "c": ["--k", "3.515694518814286e+43", "--", "2.042363991723379e+18",
          "-5.4931315956666874e+17,-6.484179432276773e+17",
          "-1.4798825683635046e+17", "-2.300700199923313e+24",
          "-0.12573963983276884,0.013337441480221724",
          "31.84977942920596,83.65630782301045", "-0.02296287117279045"],
}


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_an_overflowed_threshold_decides_nothing(name, capsys):
    argv = ["check"] + REPRODUCERS[name]
    args = cli.build_parser().parse_args(argv)
    m = cli._map_for(CharacterPoint(*args.coords))
    verdict = decide_bq(m, BqParams(K=args.k))
    assert (verdict.status, verdict.budget_hit) \
        == (Status.UNDECIDED, "overflow")
    assert cli.main(argv) == cli.EXIT_UNDECIDED
    assert "verdict: Undecided (budget: overflow)" in capsys.readouterr().out


def log_uniform(rng) -> complex:
    """A value of modulus 10^u, u uniform on [-150, 150]: real for about
    a third of the draws, else at a uniform angle."""
    r = 10.0 ** rng.uniform(-150, 150)
    if rng.random() < 0.3:
        return complex(r * rng.choice((-1.0, 1.0)))
    t = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def extreme_inputs(seed: int = 1509, count: int = 2000):
    """(quad, K) pairs: coordinates and omega log-uniform up to 1e150,
    and every other input with K = 2 + M plus a log-uniform term up to
    1e150."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(count):
        omega = BoundaryData(tuple(log_uniform(rng) for _ in range(3)))
        quad = tuple(log_uniform(rng) for _ in range(4))
        K = 2.0 + omega.M + 10.0 ** rng.uniform(0, 150) if n % 2 else None
        out.append((MarkoffQuad(quad, omega, on_variety=False), K))
    return out


def test_extreme_inputs_decide_only_on_a_certificate(monkeypatch):
    values = []

    def recorded_h_star(*args):
        h = h_star(*args)
        values.append(h)
        return h

    monkeypatch.setattr(bq, "h_star", recorded_h_star)
    statuses = set()
    inputs = extreme_inputs()
    assert len(inputs) >= 2000
    for quad, K in inputs:
        values.clear()
        m = KeyedMap(quad)
        v = decide_bq(m, BqParams(K=K, max_faces=200, max_arc_steps=300))
        statuses.add((v.status, v.witness and v.witness.kind))
        if v.status is not Status.UNDECIDED:
            assert not any(math.isnan(h) for h in values), quad
        if v.witness is not None \
                and v.witness.kind is WitnessKind.INFINITE_ARC:
            i, j = v.witness.face.colors
            q = m.quad_at(v.witness.face.anchor)
            obstructed = face_obstruction(m.boundary, i, j, q[i - 1],
                                          q[j - 1])[1] is not None
            assert obstructed or 0 in (abs(q[i - 1]), abs(q[j - 1])), quad
    assert {(Status.IN_BQ, None), (Status.UNDECIDED, None),
            (Status.NOT_BQ, WitnessKind.BQ1_VIOLATION)} <= statuses


def test_k_whose_square_overflows_is_rejected():
    for K in (1e155, -1e155, 10 ** 155, 1.35e154):
        with pytest.raises(ValueError):
            BqParams(K=K)
    assert BqParams(K=1.34e154).K == 1.34e154
