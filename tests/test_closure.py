"""Closing up the attracting tree by position.

The closure in ``decide_bq`` screens each window vertex but the popped
face's anchor on the carried quad, past the first vertex only the three
colour pairs that hold the colour of the edge just crossed, and names a
face that passes by the position of its anchor on the window, as
``oracles.boundary_face`` does, then by that vertex's trie node and its
colour pair.  These tests key such a face from its position on the
boundary and pin that the keys and the first-met order equal the
five-pair screen with word-built keys, that the exploration order on
the budget-bound points does not move, that a decision reads no quad by
word, and that saturated values end a decision as Undecided instead of
crashing or spending the arc budget.
"""

import pytest

from bqdomain import cli
from bqdomain.algebra import BoundaryData, MarkoffQuad, sigma
from bqdomain.bq import (ArcOutcome, ArcResult, BqParams, Status,
                         attracting_arc, decide_bq)
from bqdomain.markoff import HUGE, _cap
from bqdomain.neighbors import h_star
from bqdomain.tree import (COLORS, EDGE_COLORS, FACE_PAIRS, FaceKey,
                           canonical_face)

from conftest import shallow_faces, slice_map
from oracles import (KeyedMap, boundary_face, face_in_level, face_vertex_at,
                     values_in_level)

ZERO = BoundaryData((0.0, 0.0, 0.0))
POSITIONS = range(-40, 41)


def raw_map(values) -> KeyedMap:
    return KeyedMap(MarkoffQuad(values, ZERO, on_variety=False))


def first_met(keys):
    out = {}
    for g in keys:
        out.setdefault(g, None)
    return list(out)


def five_pair_screen(m, f, arc, K):
    """Every pair but f's at every window vertex, keyed from the word."""
    M = m.boundary.M
    for n, quad in enumerate(arc.quads, arc.n1):
        for i, j in FACE_PAIRS:
            if (i, j) != f.colors and values_in_level(
                    quad[i - 1], quad[j - 1], m.boundary.lam(i, j), K, M):
                yield canonical_face(face_vertex_at(f, n), i, j)


def three_pair_screen(m, f, arc, K):
    """Five pairs at the first vertex, then the pairs holding the colour
    of the edge just crossed, keyed from the position."""
    M = m.boundary.M
    k, l = EDGE_COLORS[f.colors]
    screen = [p for p in FACE_PAIRS if p != f.colors]
    for n, quad in enumerate(arc.quads, arc.n1):
        for i, j in screen:
            if values_in_level(quad[i - 1], quad[j - 1],
                               m.boundary.lam(i, j), K, M):
                yield boundary_face(f, n, i, j)
        c = (k, l)[n & 1]
        screen = [p for p in FACE_PAIRS if c in p]


class TestBoundaryFace:
    def test_matches_canonical_face_of_the_vertex(self):
        for f in shallow_faces():
            for i, j in FACE_PAIRS:
                if (i, j) == f.colors:
                    continue
                for n in POSITIONS:
                    want = canonical_face(face_vertex_at(f, n), i, j)
                    assert boundary_face(f, n, i, j) == want, (f, n, i, j)

    def test_edge_colors_table(self):
        for i in COLORS:
            for j in COLORS:
                if i != j:
                    want = tuple(c for c in COLORS if c not in (i, j))
                    assert EDGE_COLORS[i, j] == want


class TestScreen:
    @pytest.mark.parametrize("a", [-2.25 - 2.25j, -0.75 + 0.75j,
                                   -5.25 + 5.25j])
    def test_three_pairs_find_the_five_pair_faces_in_order(self, a):
        m = slice_map(a)
        params = BqParams()
        K = params.level(m)
        arcs = hits = 0
        for f in shallow_faces():
            if not face_in_level(m, f, K):
                continue
            arc = attracting_arc(m, f, m.quad_at(f.anchor), K,
                                 params.max_arc_steps)
            if arc.outcome is not ArcOutcome.FINITE:
                continue
            want = first_met(five_pair_screen(m, f, arc, K))
            assert first_met(three_pair_screen(m, f, arc, K)) == want, f
            arcs += 1
            hits += len(want)
        assert arcs > 0 and hits > arcs


class TestExplorationOrder:
    # Budget-bound points: the LIFO queue's order decides where each
    # budget runs out, so a reordered closure changes these numbers.
    @pytest.mark.parametrize("a, budget, steps", [
        (-0.75 + 0.75j, "max_arc_steps", 1303),
        (0.75 - 0.75j, "max_faces", 6141),
        (-5.25 + 5.25j, "max_faces", 6636)])
    def test_deep_points_pinned(self, a, budget, steps):
        v = decide_bq(slice_map(a))
        assert (v.status, v.budget_hit, v.steps_used) == \
            (Status.UNDECIDED, budget, steps)


def counted_quad_reads(m):
    reads = []
    lookup = m.quad_at

    def quad_at(v):
        reads.append(v)
        return lookup(v)
    m.quad_at = quad_at
    return reads


class TestOneQuadPerFace:
    def test_decide_reads_no_quad_by_word(self):
        for a in (-2.25 - 2.25j, 3.75 + 3.75j):
            m = slice_map(a)
            reads = counted_quad_reads(m)
            assert decide_bq(m).status is Status.IN_BQ
            assert reads == []

    def test_sigma_capped_is_eval_sigma(self):
        m = slice_map(3.75 + 3.75j)
        lam = m.boundary.lam
        for f in shallow_faces():
            i, j = f.colors
            k = next(c for c in COLORS if c not in (i, j))
            ai, aj = m.region_values_at(f)
            psi = m.eval_face(f)
            assert _cap(sigma(ai, aj, psi, lam(i, j), lam(i, k), lam(j, k))) \
                == m.eval_sigma(f)
        assert _cap(sigma(HUGE, 1.0, 1.0, 0.0, 0.0, 0.0)) is HUGE


class TestOverflow:
    def test_root_is_capped(self):
        m = raw_map((complex(1.5e308, 1.5e308), 3, 3, 3))
        assert m.quad_at("")[0] is HUGE
        assert m.quad_at("")[1:] == (3, 3, 3)

    def test_huge_anchor_quad_ends_the_arc(self):
        m = raw_map((complex(1.5e308, 1.5e308), 1.9, 1.9, 3))
        f = canonical_face("", 2, 3)
        K = BqParams().level(m)
        with pytest.raises(OverflowError):
            h_star(m.boundary, f, m.quad_at(f.anchor), K)
        assert attracting_arc(m, f, m.quad_at(f.anchor), K,
                              BqParams().max_arc_steps).outcome \
            is ArcOutcome.OVERFLOW

    def test_huge_face_value_ends_the_arc(self):
        # No value of the quad is HUGE, but its face value 1e200 is past
        # the cap, so h_star leaves no threshold and no step is walked.
        m = raw_map((1e100, 1e100, 1, 1))
        arc = attracting_arc(m, FaceKey("", (1, 2)), m.root,
                             BqParams().level(m), 100)
        assert arc == ArcResult(ArcOutcome.OVERFLOW)
        assert arc.steps == 0

    def test_saturated_ray_is_undecided_at_once(self):
        m = raw_map((1.9, 1.9, 5e149, 5e149))
        arc = attracting_arc(m, canonical_face("", 1, 2), m.quad_at(""),
                             BqParams().level(m), BqParams().max_arc_steps)
        assert arc.outcome is ArcOutcome.OVERFLOW
        assert arc.steps < 10
        v = decide_bq(raw_map((1.9, 1.9, 5e149, 5e149)))
        assert (v.status, v.budget_hit) == (Status.UNDECIDED, "overflow")

    def test_unsaturated_ray_stays_in_bq(self):
        v = decide_bq(raw_map((1.9, 1.9, 1e149, 1e149)))
        assert v.status is Status.IN_BQ

    @pytest.mark.parametrize("argv", [
        ["check", "1.5e308,1.5e308", "3", "3", "3", "0", "0", "0"],
        ["check", "1.5e308,1.5e308", "1.9", "1.9", "3", "0", "0", "0"]],
        ids=["overflow_root", "huge_seed_quad"])
    def test_check_exits_undecided(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_UNDECIDED
        out, err = capsys.readouterr()
        assert "verdict: Undecided (budget: overflow)" in out
        assert err == ""
