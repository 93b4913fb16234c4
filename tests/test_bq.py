"""Membership decision procedure: level predicates, witnesses, descent,
arc closure, and verdict certificates."""

import math
import random

import pytest

from bqdomain.algebra import BoundaryData, MarkoffQuad
from bqdomain.bq import (ArcOutcome, BqParams, Status, WitnessKind,
                         arc_edges, attracting_arc, decide_bq, face_witness,
                         find_sink)
from bqdomain.tree import (FACE_PAIRS, EdgeKey, FaceKey, canonical_face,
                           faces_at)
from conftest import (in_bq_fixtures, in_bq_quad, make_map, not_bq_fixtures,
                      random_markoff_map, slice_map)
from oracles import face_edge_at, face_in_level, neighbors, points_toward

ZERO = BoundaryData((0.0, 0.0, 0.0))


class TestParams:
    def test_default_level_is_two_plus_m(self):
        m = make_map(MarkoffQuad((0, 0, 0, 0), BoundaryData((1, 2, 3)),
                                 on_variety=False))
        assert BqParams().level(m) == 5.0

    def test_rejects_level_below_floor(self):
        m = make_map(MarkoffQuad((0, 0, 0, 0), BoundaryData((1, 2, 3)),
                                 on_variety=False))
        with pytest.raises(ValueError):
            BqParams(K=4.0).level(m)

    @pytest.mark.parametrize("k", ["9", True, math.nan, math.inf, -math.inf,
                                   4j])
    def test_rejects_k_that_is_not_finite_real(self, k):
        with pytest.raises(ValueError):
            BqParams(K=k)

    @pytest.mark.parametrize("k", [None, 9, 9.5])
    def test_accepts_finite_real_k(self, k):
        assert BqParams(K=k).K == k

    @pytest.mark.parametrize("budget", ["max_descent_steps", "max_faces",
                                        "max_arc_steps", "max_total_edges"])
    def test_budgets_are_non_negative_ints(self, budget):
        # "5" would fail mid-decide, -3 stop at the first pop, True count 1
        for n in ("5", -3, True, 1.0, None):
            with pytest.raises(ValueError):
                BqParams(**{budget: n})
        assert getattr(BqParams(**{budget: 0}), budget) == 0


class TestLevelPredicates:
    def test_face_needs_small_region_and_small_value(self):
        # both regions at 4.0 exceed K=2, so no face between them counts
        m = make_map(in_bq_quad(4.0))
        assert not face_in_level(m, canonical_face("", 1, 2), 2.0)

    def test_two_small_regions_force_face_in_level(self, rng):
        for _ in range(20):
            m = random_markoff_map(rng)
            K = BqParams().level(m)
            for v in ("", "1", "23"):
                for f in faces_at(v):
                    ai, aj = m.region_values_at(f)
                    if abs(ai) < K and abs(aj) < K:
                        assert face_in_level(m, f, K)


class TestWitness:
    def test_band_witness(self):
        m = make_map(not_bq_fixtures()[0])
        w = face_witness(m, canonical_face("", 1, 2), m.quad_at(""))
        assert w is not None and w.kind is WitnessKind.BQ1_VIOLATION

    def test_no_witness_on_member(self):
        m = make_map(in_bq_quad(4.0))
        for f in faces_at(""):
            assert face_witness(m, f, m.quad_at(f.anchor)) is None

    def test_sigma_witness(self):
        # a^2 + b^2 = 4 zeroes the first sigma factor while the face
        # value 3b stays off the real band
        import cmath
        b = cmath.sqrt(4 - 9)
        m = make_map(MarkoffQuad((3.0, b, 0, 0), ZERO, on_variety=False))
        w = face_witness(m, canonical_face("", 1, 2), m.quad_at(""))
        assert w is not None and w.kind is WitnessKind.SIGMA_ZERO


class TestDescent:
    def test_finds_sink_for_member(self):
        res = find_sink(make_map(in_bq_quad(4.0)), BqParams())
        assert res.vertex is not None
        assert res.witness is None and res.seeds

    def test_budget_exhaustion_reported(self):
        res = find_sink(make_map(in_bq_quad(4.0)),
                        BqParams(max_descent_steps=0))
        assert res.budget_hit == "max_descent_steps"


class TestArc:
    def test_finite_arc_on_member(self):
        m = make_map(in_bq_quad(4.0))
        verdict = decide_bq(m)
        f = next(iter(verdict.tree.arc_bounds))
        arc = attracting_arc(m, f, m.quad_at(f.anchor), BqParams().level(m),
                             BqParams().max_arc_steps)
        assert arc.outcome is ArcOutcome.FINITE
        assert arc.n1 <= arc.n2

    def test_infinite_on_band_face(self):
        m = make_map(MarkoffQuad((1.0, 1.5, 0, 0), ZERO, on_variety=False))
        arc = attracting_arc(m, canonical_face("", 1, 2), m.quad_at(""),
                             BqParams().level(m), BqParams().max_arc_steps)
        assert arc.outcome is ArcOutcome.INFINITE

    def test_budget_outcome(self):
        m = make_map(in_bq_quad(4.0))
        verdict = decide_bq(m)
        f = next(iter(verdict.tree.arc_bounds))
        K = BqParams().level(m)
        arc = attracting_arc(m, f, m.quad_at(f.anchor), K, 1)
        assert arc.outcome is ArcOutcome.BUDGET


class TestDecide:
    def test_members_get_certificates(self):
        for quad in in_bq_fixtures()[:4]:
            v = decide_bq(make_map(quad))
            assert v.status is Status.IN_BQ
            assert v.tree is not None and len(v.tree.edges) > 0
            for f, (n1, n2) in v.tree.arc_bounds.items():
                assert n1 <= n2 + 1

    def test_non_members_get_witnesses(self):
        for quad in not_bq_fixtures():
            v = decide_bq(make_map(quad))
            assert v.status is Status.NOT_BQ
            assert v.witness is not None

    def test_budget_yields_undecided(self):
        v = decide_bq(make_map(in_bq_quad(4.0)), BqParams(max_arc_steps=1))
        assert v.status is Status.UNDECIDED
        assert v.budget_hit == "max_arc_steps"

    def test_deterministic(self):
        quad = in_bq_quad(5.5)
        v1 = decide_bq(make_map(quad))
        v2 = decide_bq(make_map(quad))
        assert v1.status == v2.status
        assert v1.tree.edges == v2.tree.edges
        assert v1.tree.arc_bounds == v2.tree.arc_bounds

    def test_certificate_edges_cover_arcs(self):
        v = decide_bq(make_map(in_bq_quad(4.5)))
        for f, (n1, n2) in v.tree.arc_bounds.items():
            for n in range(n1, n2 + 1):
                assert face_edge_at(f, n) in v.tree.edges

    def test_tree_is_attracting(self):
        # every edge incident to the certificate tree but outside it
        # points toward the tree
        m = make_map(in_bq_quad(4.0))
        v = decide_bq(m)
        verts = set()
        for e in v.tree.edges:
            verts.update((e.parent, e.child))
        for u in verts:
            for w in neighbors(u):
                e = EdgeKey(w if len(w) > len(u) else u)
                if e not in v.tree.edges:
                    assert points_toward(m, e, u)

    def test_verdict_stable_under_larger_level(self):
        quad = in_bq_quad(6.0)
        for K in (2.0, 2.5, 3.0):
            assert decide_bq(make_map(quad),
                             BqParams(K=K)).status is Status.IN_BQ

    def test_level_is_resolved_once_per_phase(self, monkeypatch):
        """``BqParams.level`` is read at most twice per decision, once by
        the descent and once for the closure, however many faces pop:
        the three budget-bound points of the render slice pop thousands
        of faces each, and the arc walk takes K as an argument."""
        level, calls = BqParams.level, []

        def counting(params, m):
            calls.append(m)
            return level(params, m)
        monkeypatch.setattr(BqParams, "level", counting)
        for a in (-0.75 + 0.75j, 0.75 - 0.75j, -5.25 + 5.25j):
            del calls[:]
            verdict = decide_bq(slice_map(a))
            assert verdict.status is Status.UNDECIDED
            assert verdict.steps_used > 1000
            assert 1 <= len(calls) <= 2, (a, len(calls))


def reduced_word(rng: random.Random, n: int) -> str:
    word = ""
    while len(word) < n:
        c = rng.choice("1234")
        if not word or word[-1] != c:
            word += c
    return word


# Empty arcs, arcs wholly on the negative or the positive side, and arcs
# through position 0.
ARCS = [(0, -1), (1, 0), (3, 2), (-2, -5), (-1, -1), (-7, -1), (-6, -3),
        (0, 0), (0, 7), (2, 9), (-1, 0), (-4, 3), (-8, 8), (-3, 0)]


@pytest.mark.parametrize("length", range(9))
def test_arc_edges_spell_face_edge_at_in_order(length):
    rng = random.Random(length)
    for p in FACE_PAIRS:
        f = FaceKey(reduced_word(rng, length), p)
        for n1, n2 in ARCS:
            want = [face_edge_at(f, n) for n in range(n1, n2 + 1)]
            assert arc_edges(f, n1, n2) == want, (f, n1, n2)
