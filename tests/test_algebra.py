"""Trace-coordinate arithmetic: vertex relation, root solving, moves,
face values, sigma, and the seven involutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqdomain.algebra import (BoundaryData, CharacterPoint, DerivedBoundary,
                              MarkoffQuad, RootChoice, Theta, elementary_move,
                              face_value, involution_theta, quad_residual,
                              residual_modulus, sigma, solve_fourth,
                              vertex_residual)
from bqdomain.tree import COLORS, EDGE_COLORS, FACE_PAIRS
from conftest import random_on_variety_point, sup_norm

ZERO = BoundaryData((0.0, 0.0, 0.0))

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
cplx = st.builds(complex, finite, finite)


def residual_tol(pt: CharacterPoint) -> float:
    return 1e-9 * (1 + sup_norm(pt) ** 4)


class TestVertexResidual:
    def test_zero_on_known_points(self):
        assert vertex_residual(CharacterPoint(0, 0, 0, 2, 0, 0, 0)) == 0
        assert vertex_residual(CharacterPoint(0, 0, 0, 0, 2, 0, 0)) == 0

    def test_hand_value_off_variety(self):
        assert vertex_residual(CharacterPoint(1, 1, 1, 1, 0, 0, 0)) == 1

    def test_matches_quad_residual(self):
        pt = CharacterPoint(1.5, -0.5, 2.0, 0.25, 0.1, 0.2, 0.3)
        assert vertex_residual(pt) == quad_residual(
            pt.quad, BoundaryData((pt.x, pt.y, pt.z)))

    # a finite modulus as is; inf for a modulus past float range (abs()
    # raised OverflowError) and for a NaN part (max() dropped it)
    @pytest.mark.parametrize("values, omega, want", [
        ((1, 1, 1, 1), (0, 0, 0), 1.0),
        ((3j, 0, 0, 0), (0, 0, 0), 13.0),
        ((1.0162674857624154e+154 + 4.209517756015988e+153j,) * 2 + (0, 0),
         (0, 0, 0), float("inf")),
        ((1e200, 1e200, 0, 0), (1, 0, 0), float("inf"))],
        ids=["one", "complex", "past_float_range", "nan_part"])
    def test_residual_modulus(self, values, omega, want):
        assert residual_modulus(values, BoundaryData(omega)) == want


class TestSolveFourth:
    def test_golden_ratio_roots(self):
        plus = solve_fourth(1, 1, 1, ZERO, RootChoice.PLUS)
        minus = solve_fourth(1, 1, 1, ZERO, RootChoice.MINUS)
        roots = sorted((plus.real, minus.real))
        assert roots[0] == pytest.approx((-1 - 5 ** 0.5) / 2, abs=1e-12)
        assert roots[1] == pytest.approx((-1 + 5 ** 0.5) / 2, abs=1e-12)

    def test_zero_triple_roots(self):
        assert solve_fourth(0, 0, 0, ZERO, RootChoice.PLUS) == 2
        assert solve_fourth(0, 0, 0, ZERO, RootChoice.MINUS) == -2

    @given(a=cplx, b=cplx, c=cplx, x=cplx, y=cplx, z=cplx)
    @settings(max_examples=60, deadline=None)
    def test_roots_satisfy_relation_and_vieta(self, a, b, c, x, y, z):
        bd = BoundaryData((x, y, z))
        dp = solve_fourth(a, b, c, bd, RootChoice.PLUS)
        dm = solve_fourth(a, b, c, bd, RootChoice.MINUS)
        scale = 1 + max(abs(v) for v in (a, b, c, dp, dm, x, y, z)) ** 4
        assert abs(quad_residual((a, b, c, dp), bd)) < 1e-9 * scale
        assert abs(quad_residual((a, b, c, dm), bd)) < 1e-9 * scale
        vieta = y * a + z * b + x * c - a * b * c
        assert abs(dp + dm - vieta) < 1e-9 * scale

    @pytest.mark.parametrize("which", ["plus", "minus", None, 1])
    def test_rejects_a_root_that_is_not_a_root_choice(self, which):
        # "plus" would otherwise fall through to the MINUS root
        with pytest.raises(ValueError):
            solve_fourth(1, 1, 1, ZERO, which)


class TestMarkoffQuad:
    def test_rejects_off_variety(self):
        with pytest.raises(ValueError):
            MarkoffQuad((1, 1, 1, 1), ZERO)

    def test_raw_flag_accepts_anything(self):
        q = MarkoffQuad((1, 1, 1, 1), ZERO, on_variety=False)
        assert q[4] == 1

    def test_indexing_by_color(self):
        q = MarkoffQuad((0, 0, 0, 2), ZERO)
        assert (q[1], q[2], q[3], q[4]) == (0, 0, 0, 2)

    @pytest.mark.parametrize("color", [0, -1, 5])
    def test_rejects_a_color_outside_one_to_four(self, color):
        # [0] and [-1] would otherwise read a4 and a3
        with pytest.raises(ValueError):
            MarkoffQuad((0, 0, 0, 2), ZERO)[color]

    def test_values_past_float_range_raise_value_error(self):
        # finite parts whose modulus, fourth power or residual overflows
        huge, far = 1.5e308 + 1.5e308j, BoundaryData((1e200, -1e200, 0))
        for make in (lambda: MarkoffQuad((1e100, 0, 0, 0), ZERO),
                     lambda: MarkoffQuad((huge, 0, 0, 0), ZERO),
                     lambda: MarkoffQuad((0, 0, 0, 0), far),
                     lambda: BoundaryData((0, huge, 0))):
            with pytest.raises(ValueError):
                make()


class TestElementaryMove:
    def test_negates_last_on_zero_triple(self):
        q = MarkoffQuad((0, 0, 0, 2), ZERO)
        assert elementary_move(q, 4).values == (0, 0, 0, -2)

    def test_swaps_quadratic_roots(self):
        d = solve_fourth(1, 1, 1, ZERO, RootChoice.PLUS)
        other = solve_fourth(1, 1, 1, ZERO, RootChoice.MINUS)
        q = MarkoffQuad((1, 1, 1, d), ZERO)
        moved = elementary_move(q, 4)
        assert moved.values[3] == pytest.approx(other, abs=1e-12)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_involution_and_variety_preserved(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
        pt = random_on_variety_point(rng)
        q = MarkoffQuad(pt.quad, pt.omega)
        for i in (1, 2, 3, 4):
            moved = elementary_move(q, i)
            back = elementary_move(moved, i)
            scale = 1 + max(abs(v) for v in moved.values) ** 4
            assert abs(quad_residual(moved.values, q.boundary)) < 1e-8 * scale
            assert all(abs(u - v) < 1e-8 * scale
                       for u, v in zip(back.values, q.values))


class TestFaceValue:
    def test_examples(self):
        assert face_value(2, 3, 1) == 5
        assert face_value(0, 7, 0) == 0
        assert face_value(1 + 1j, 1 - 1j, 2j) == 2 - 2j


class TestSigma:
    def test_hand_values(self):
        assert sigma(2, 2, face_value(2, 2, 0), 0, 0, 0) == 48
        assert sigma(0, 0, face_value(0, 0, 0), 0, 0, 0) == 16

    def test_symmetric_in_region_order(self):
        v = sigma(1.5, -2.0, face_value(1.5, -2.0, 0.3), 0.3, 0.7, -0.2)
        w = sigma(-2.0, 1.5, face_value(-2.0, 1.5, 0.3), 0.3, -0.2, 0.7)
        assert v == pytest.approx(w, abs=1e-12)

    def test_independent_of_third_color_choice(self):
        # For a face the two complementary colors give swapped
        # (lam_ik, lam_jk); the second factor is symmetric under the swap.
        bd = BoundaryData((0.3, -0.2, 0.7))
        f = face_value(1.1, 2.2, bd.lam(1, 2))
        v3 = sigma(1.1, 2.2, f, bd.lam(1, 2), bd.lam(1, 3), bd.lam(2, 3))
        v4 = sigma(1.1, 2.2, f, bd.lam(1, 2), bd.lam(1, 4), bd.lam(2, 4))
        assert v3 == pytest.approx(v4, abs=1e-12)


class TestBoundaryData:
    def test_pairing_table(self):
        bd = BoundaryData((1, 2, 3))
        assert bd.lam(1, 2) == bd.lam(3, 4) == 1
        assert bd.lam(2, 3) == bd.lam(1, 4) == 2
        assert bd.lam(1, 3) == bd.lam(2, 4) == 3
        assert bd.M == 3

    def test_written_out_tables_match_lam(self):
        # By repr, which tells -0.0 from 0.0: each table entry must be the
        # very part of omega that lam names, signed zeros included.
        rng = np.random.default_rng(11)

        def part():
            return float(rng.choice([0.0, -0.0, rng.uniform(-2, 2)]))
        for n in range(100):
            omega = tuple(complex(part(), part()) if n % 2 else part()
                          for _ in range(3))
            bd = BoundaryData(omega)
            for i in COLORS:
                want = tuple(v for j in COLORS if j != i
                             for v in (j - 1, bd.lam(i, j)))
                assert repr(bd.move_terms[i]) == repr(want), omega
            for i, j in FACE_PAIRS:
                k = EDGE_COLORS[i, j][0]
                want = (bd.lam(i, j), bd.lam(i, k), bd.lam(j, k))
                assert repr(bd.lam_rows[i, j]) == repr(want), omega

    def test_derived_constants(self):
        pt = CharacterPoint(1, 2, 3, 4, 0, 0, 0)
        der = DerivedBoundary.from_point(pt)
        assert (der.p, der.q, der.r) == (14, 10, 11)
        assert der.s == 4 - 1 - 4 - 9 - 16 - 24


class TestInvolutions:
    def test_theta_d_negates_d_at_zero_boundary(self):
        pt = CharacterPoint(0, 0, 0, 2, 0, 0, 0)
        assert involution_theta(pt, Theta.D) == \
            CharacterPoint(0, 0, 0, -2, 0, 0, 0)

    def test_theta_x_fixes_zero_point(self):
        pt = CharacterPoint(0, 0, 0, 2, 0, 0, 0)
        assert involution_theta(pt, Theta.X) == pt

    @given(data=st.data(), which=st.sampled_from(list(Theta)))
    @settings(max_examples=70, deadline=None)
    def test_squares_to_identity_and_preserves_variety(self, data, which):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
        pt = random_on_variety_point(rng)
        image = involution_theta(pt, which)
        twice = involution_theta(image, which)
        assert abs(vertex_residual(image)) < residual_tol(image)
        coords = ("a", "b", "c", "d", "x", "y", "z")
        scale = 1 + sup_norm(pt) ** 3
        for name in coords:
            assert abs(getattr(twice, name) - getattr(pt, name)) \
                < 1e-12 * scale

    def test_only_named_coordinate_moves(self):
        rng = np.random.default_rng(5)
        pt = random_on_variety_point(rng)
        fixed_of = {Theta.A: "bcdxyz", Theta.B: "acdxyz", Theta.C: "abdxyz",
                    Theta.D: "abcxyz", Theta.X: "abcdyz", Theta.Y: "abcdxz",
                    Theta.Z: "abcdxy"}
        for which, names in fixed_of.items():
            image = involution_theta(pt, which)
            for name in names:
                assert getattr(image, name) == getattr(pt, name)
