"""KeyedMap evaluation: memoized quads, face/sigma values, orientation."""

import numpy as np
import pytest

from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice,
                              elementary_move, quad_residual, solve_fourth)
from bqdomain.markoff import HUGE
from bqdomain.tree import EdgeKey, RegionKey, ball_vertices, canonical_face
from conftest import random_markoff_map
from oracles import (KeyedMap, edge_surrounding, face_vertex_at, neighbors,
                     points_toward)

ZERO = BoundaryData((0.0, 0.0, 0.0))


def simple_map() -> KeyedMap:
    return KeyedMap(MarkoffQuad((0, 0, 0, 2), ZERO))


def golden_map() -> KeyedMap:
    d = solve_fourth(1, 1, 1, ZERO, RootChoice.PLUS).real
    return KeyedMap(MarkoffQuad((1, 1, 1, d), ZERO))


class TestRegionValues:
    def test_root_and_one_move(self):
        m = simple_map()
        assert m.eval_region(RegionKey("", 4)) == 2
        assert m.eval_region(RegionKey("4", 4)) == -2

    def test_two_moves_match_explicit_composition(self):
        m = golden_map()
        q = m.root_quad
        explicit = elementary_move(elementary_move(q, 1), 4)
        assert m.quad_at("14") == explicit.values

    def test_memo_agrees_with_fresh_bitwise(self):
        rng = np.random.default_rng(7)
        m1 = random_markoff_map(rng)
        m2 = KeyedMap(m1.root_quad)
        targets = ["13121", "4232", "212121", "34341"]
        # warm one cache deep-first, the other shallow-first
        for v in targets:
            m1.quad_at(v)
        for v in sorted(targets, key=len):
            m2.quad_at(v)
        for v in ball_vertices(4):
            assert m1.quad_at(v) == m2.quad_at(v)


class TestFaceAndSigma:
    def test_face_matches_pair_product(self):
        m = KeyedMap(MarkoffQuad((2, 3, 0, 0), BoundaryData((1, 0, 0)),
                                   on_variety=False))
        assert m.eval_face(canonical_face("", 1, 2)) == 5

    def test_sigma_at_root(self):
        m = KeyedMap(MarkoffQuad((2, 2, 0, 0), ZERO, on_variety=False))
        assert m.eval_sigma(canonical_face("", 1, 2)) == 48

    def test_face_constant_along_boundary_geodesic(self):
        rng = np.random.default_rng(11)
        m = random_markoff_map(rng)
        f = canonical_face("", 1, 3)
        base = m.eval_face(f)
        for pos in range(-4, 5):
            v = face_vertex_at(f, pos)
            assert canonical_face(v, 1, 3) == f
            i, j = f.colors
            quad = m.quad_at(v)
            val = quad[i - 1] * quad[j - 1] - m.boundary.lam(i, j)
            assert abs(val - base) < 1e-9 * (1 + abs(base))


class TestVertexAndEdgeEquations:
    def test_vertex_relation_propagates(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = random_markoff_map(rng)
            for v in ball_vertices(4):
                quad = m.quad_at(v)
                if any(u is HUGE for u in quad):
                    continue
                scale = 1 + max(abs(u) for u in quad) ** 4
                assert abs(quad_residual(quad, m.boundary)) < 1e-8 * scale

    def test_edge_sum_identity(self):
        rng = np.random.default_rng(4)
        m = random_markoff_map(rng)
        lam = m.boundary.lam
        for v in ball_vertices(3):
            for c in (1, 2, 3, 4):
                if v and v[-1] == str(c):
                    continue
                e = EdgeKey(v + str(c))
                sides, (delta, delta_prime) = edge_surrounding(e)
                vals = [m.eval_region(r) for r in sides]
                if any(u is HUGE for u in vals):
                    continue
                lhs = m.eval_region(delta) + m.eval_region(delta_prime)
                rhs = sum(lam(c, r.color) * u for r, u in zip(sides, vals)) \
                    - vals[0] * vals[1] * vals[2]
                assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


class TestOverflow:
    def test_huge_propagates_and_compares_large(self):
        m = KeyedMap(MarkoffQuad((1e100, 1e100, 1e100, 1e100), ZERO,
                                   on_variety=False))
        quad = m.quad_at("1")
        assert quad[0] is HUGE
        assert abs(quad[0]) == float("inf")
        deeper = m.quad_at("12")
        assert deeper[1] is HUGE


class TestOrientation:
    def test_tie_points_toward_child(self):
        m = simple_map()
        assert points_toward(m, EdgeKey("4"), "4")
        assert not points_toward(m, EdgeKey("4"), "")

    def test_arrow_into_smaller_region(self):
        m = golden_map()
        # the root color-4 region holds the small root, the far one the
        # large conjugate root
        assert points_toward(m, EdgeKey("4"), "")
        assert not points_toward(m, EdgeKey("4"), "4")

    def test_points_toward_rejects_non_endpoint(self):
        m = simple_map()
        with pytest.raises(ValueError):
            points_toward(m, EdgeKey("4"), "12")

    def test_small_root_vertex_is_sink(self):
        # with the small quadratic root every move grows the quad
        bd = ZERO
        d = solve_fourth(5, 5, 5, bd, RootChoice.PLUS).real
        assert abs(d) < 1
        m = KeyedMap(MarkoffQuad((5, 5, 5, d), bd))
        assert all(points_toward(m, EdgeKey(w), "") for w in neighbors(""))
