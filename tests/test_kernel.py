"""One arithmetic kernel: ``algebra`` writes each trace formula once and
``markoff`` adds only saturation.

These tests tie every caller of a formula to the one function that
writes it: the memoized move, the quad involutions and the elementary
move; the capped sigma and face value; the two level tests, on
memoized and on carried quads.  They also pin saturation on every slot
of a move and on values whose modulus overflows ``abs``.
"""

import numpy as np
import pytest

from bqdomain import cli
from bqdomain.algebra import (CharacterPoint, MarkoffQuad, Theta,
                              elementary_move, face_value, involution_theta,
                              sigma)
from bqdomain.bq import BqParams, Status, decide_bq
from bqdomain.markoff import HUGE, OVERFLOW_CAP, MarkoffMap, _cap
from bqdomain.tree import (COLORS, FACE_PAIRS, ball_vertices, canonical_face,
                           faces_at)

from conftest import random_on_variety_point, shallow_faces, slice_map
from oracles import KeyedMap, face_in_level, face_vertex_at, values_in_level
from test_position_walk import HARD, POSITIONS, carried_quads

QUAD_THETAS = (Theta.A, Theta.B, Theta.C, Theta.D)

# Two inputs whose intermediate values have finite parts too large for
# abs(): sigma overflows during the descent, and the root face value.
OVERFLOW_ARGS = [
    ["check", "--", "0.7265934482714025,-0.97280788717736",
     "-1.0534001158948425,-0.2676966924752606", "1.7103944424587186e80",
     "1.1376967467297318e77", "1", "0", "0.3"],
    ["check", "1.5e308,1.5e308", "1", "1", "1", "0", "0", "0"],
]


def random_points(n=8, seed=2024):
    rng = np.random.default_rng(seed)
    return [random_on_variety_point(rng) for _ in range(n)]


@pytest.mark.parametrize("i", COLORS)
def test_move_matches_elementary_move(i):
    for pt in random_points():
        q = MarkoffQuad(pt.quad, pt.omega)
        assert MarkoffMap(q)._move(q.values, i) == elementary_move(q, i).values


@pytest.mark.parametrize("i,which", zip(COLORS, QUAD_THETAS))
def test_quad_involution_is_elementary_move(i, which):
    for pt in random_points():
        image = involution_theta(pt, which)
        assert image.quad == elementary_move(MarkoffQuad(pt.quad, pt.omega),
                                             i).values
        assert image.omega == pt.omega


def test_eval_sigma_is_algebra_sigma_on_root_faces():
    for pt in random_points():
        m = KeyedMap(MarkoffQuad(pt.quad, pt.omega))
        lam = m.boundary.lam
        for f in faces_at(""):
            i, j = f.colors
            k = next(c for c in COLORS if c not in (i, j))
            ai, aj = m.region_values_at(f)
            expect = sigma(ai, aj, face_value(ai, aj, lam(i, j)),
                           lam(i, j), lam(i, k), lam(j, k))
            assert m.eval_sigma(f) == expect


def ball_level_cases():
    """The ball-2 faces of four random points at three K, with their
    region values read through the memo."""
    for pt in random_points(4):
        m = KeyedMap(MarkoffQuad(pt.quad, pt.omega))
        M = m.boundary.M
        for K in (2.0 + M, 3.0 + M, 6.0 + M):
            for v in ball_vertices(2):
                for f in faces_at(v):
                    yield m, K, f, m.region_values_at(f)


def carried_level_cases():
    """Every pair at positions -40..40 along the hard slice point's
    shallow faces, with its region values read from the quad carried
    there."""
    m = slice_map(HARD)
    K = BqParams().level(m)
    for f in shallow_faces():
        quads = carried_quads(m, f, 40)
        for n in POSITIONS:
            vert, quad = face_vertex_at(f, n), quads[n]
            for i, j in FACE_PAIRS:
                yield (m, K, canonical_face(vert, i, j),
                       (quad[i - 1], quad[j - 1]))


def test_face_in_level_agrees_with_values_in_level():
    for cases in (ball_level_cases(), carried_level_cases()):
        hits = 0
        for m, K, f, (ai, aj) in cases:
            M = m.boundary.M
            got = face_in_level(m, f, K)
            assert got == values_in_level(ai, aj, m.boundary.lam(*f.colors),
                                          K, M), f
            assert got == (min(abs(ai), abs(aj)) < K
                           and abs(m.eval_face(f)) < K * K + M), f
            hits += got
        assert hits > 0


@pytest.mark.parametrize("slot", range(4))
def test_move_saturates_from_every_slot(slot):
    pt = random_points(1)[0]
    m = MarkoffMap(MarkoffQuad(pt.quad, pt.omega))
    vals = list(pt.quad)
    vals[slot] = HUGE
    vals = tuple(vals)
    for i in COLORS:
        out = m._move(vals, i)
        assert out[i - 1] is HUGE
        assert all(out[c - 1] is vals[c - 1] for c in COLORS if c != i)


def test_cap_saturates_without_raising():
    assert _cap(complex(1.5e308, 1.5e308)) is HUGE
    assert _cap(complex(float("nan"), 0.0)) is HUGE
    assert _cap(complex(0.0, float("inf"))) is HUGE
    assert _cap(complex(OVERFLOW_CAP, 0.0)) == OVERFLOW_CAP
    assert _cap(2 - 1j) == 2 - 1j


def test_decide_bq_survives_overflowing_sigma():
    coords = [cli.parse_complex(s) for s in OVERFLOW_ARGS[0][2:]]
    m = cli._map_for(CharacterPoint(*coords))
    assert isinstance(decide_bq(m).status, Status)


@pytest.mark.parametrize("argv", OVERFLOW_ARGS, ids=["sigma", "root_face"])
def test_check_returns_a_verdict_on_overflow(argv, capsys):
    assert cli.main(argv) in (cli.EXIT_IN_BQ, cli.EXIT_NOT_BQ,
                              cli.EXIT_UNDECIDED)
    assert "verdict:" in capsys.readouterr().out
