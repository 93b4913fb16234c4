"""Side-region recurrence, escape threshold H, and specializations."""

import cmath
import math

import pytest

from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice,
                              solve_fourth)
from bqdomain.neighbors import dist_to_interval, h_star
from bqdomain.tree import canonical_face

from oracles import (HInputs, KeyedMap, NeighborSeq, face_h_inputs_reference,
                     face_side_region, h_value, simulate_neighbors,
                     specialize_four_holed_sphere, specialize_n13,
                     specialize_torus)

ZERO = BoundaryData((0.0, 0.0, 0.0))

GOLDEN_LAMBDA = (7 + 3 * 5 ** 0.5) / 2


class TestDistToInterval:
    def test_inside_and_ends(self):
        assert dist_to_interval(0.5 + 0j) == 0
        assert dist_to_interval(2 + 0j) == 0
        assert dist_to_interval(3 + 0j) == 1
        assert dist_to_interval(-5 + 0j) == 3

    def test_complex_offsets(self):
        assert dist_to_interval(1j) == 1
        assert dist_to_interval(3 + 4j) == pytest.approx(math.hypot(1, 4))


class TestHValue:
    def test_reference_instance(self):
        out = h_value(HInputs(0, 0, 5, 3))
        assert out.lam == pytest.approx(GOLDEN_LAMBDA, rel=1e-12)
        assert out.T == pytest.approx(1.0)
        assert out.eta == 0
        assert out.W == 0
        assert out.H == pytest.approx(GOLDEN_LAMBDA, rel=1e-12)

    def test_infinite_when_multiplier_on_unit_circle(self):
        assert h_value(HInputs(1, 1, 1, 1)).H == math.inf
        assert h_value(HInputs(0.3, -2, 7, -1.5)).H == math.inf

    def test_infinite_when_mode_product_vanishes(self):
        assert h_value(HInputs(0, 0, 0, 3)).H == math.inf

    def test_symmetric_version_takes_worst_order(self):
        # h_star evaluates one threshold per face, and its H is the larger
        # over both orderings of (Q, R): (Q, R) wins at the first quad,
        # (R, Q) at the second, both above the level term.
        bd = BoundaryData((1.0, 0.5, -0.3))
        K = 2 + bd.M
        wins = set()
        for quad in ((3 + 2j, 2 - 1j, 4 + 1j, -5 + 0.5j),
                     (1.0, 4.0, 4.0, -1 + 2j)):
            inp = face_h_inputs_reference(bd, quad, 1, 2)
            swapped = HInputs(inp.R, inp.Q, inp.S, inp.X)
            h, h_swapped = h_value(inp).H, h_value(swapped).H
            level = (K * K + 2 * bd.M) / min(abs(quad[0]), abs(quad[1]))
            assert min(h, h_swapped) > level
            got = h_star(bd, canonical_face("", 1, 2), quad, K)
            assert got == max(h, h_swapped)
            wins.add(h > h_swapped)
        assert wins == {True, False}

    def test_lambda_is_large_root(self):
        out = h_value(HInputs(1, 2, 3, 2.5))
        assert abs(out.lam) > 1
        mu = 2.5 ** 2 - 2
        assert out.lam + 1 / out.lam == pytest.approx(mu, rel=1e-12)


class TestSimulate:
    def test_period_two_when_x_zero(self):
        seq = NeighborSeq(0, 0, 0, 1, 2)
        orbit = simulate_neighbors(seq, -2, 2)
        assert orbit[2] == (1, 2)
        assert orbit[3] == (-1, -2)
        assert orbit[4] == (1, 2)
        assert orbit[0] == (1, 2)

    def test_backward_inverts_forward(self):
        seq = NeighborSeq(2.7, 0.4 - 0.1j, -1.2, 0.3, 0.9 + 0.2j)
        orbit = simulate_neighbors(seq, -6, 6)
        shifted = NeighborSeq(seq.X, seq.Q, seq.R, *orbit[0])
        again = simulate_neighbors(shifted, 0, 12)
        # rounding from the backward leg is re-amplified by the multiplier
        # on the way forward, so the bound scales with the orbit peak
        peak = max(abs(v) for pair in orbit for v in pair)
        for a, b in zip(orbit, again):
            assert abs(a[0] - b[0]) < 1e-7 * (1 + peak)
            assert abs(a[1] - b[1]) < 1e-7 * (1 + peak)

    def test_quadratic_conserved(self):
        seq = NeighborSeq(3.1, 1.0, -0.5, 0.7, 0.2)
        target = -seq.S
        for y, z in simulate_neighbors(seq, -8, 8):
            got = (y * y + z * z + seq.X * y * z
                   - seq.Q * y - seq.R * z)
            # the orbit grows exponentially; cancellation error scales
            # with the squared entries
            assert abs(got - target) < 1e-10 * (1 + abs(y) + abs(z)) ** 2

    def test_growth_ratio_approaches_multiplier(self):
        z0 = (-3 + cmath.sqrt(9 - 24)) / 2   # conserved quadratic = -5
        seq = NeighborSeq(3, 0, 0, 1, z0)
        assert abs(seq.S - 5) < 1e-12
        ys = [y for y, _ in simulate_neighbors(seq, 0, 16)]
        ratio = abs(ys[15]) / abs(ys[14])
        assert ratio == pytest.approx(GOLDEN_LAMBDA, rel=0.01)


class TestSpecializations:
    def test_torus(self):
        assert specialize_torus(0, 3) == HInputs(0, 0, -9, 3)

    def test_published_n13_substitution(self):
        got = specialize_n13(2, 2, (1, 0, 0))
        assert got == HInputs(0, 0, -9, 3)

    def test_n13_zero_off_diagonal(self):
        got = specialize_n13(1.3, -0.4, (0.8, 0, 0))
        assert got.Q == 0 and got.R == 0

    def test_four_holed_sphere(self):
        got = specialize_four_holed_sphere(1, 1, 1, 1, 0)
        assert got == HInputs(2, 2, 4 - 4 - 1, 0)


def sample_map(omega, abc, which=RootChoice.PLUS) -> KeyedMap:
    bd = BoundaryData(omega)
    d = solve_fourth(*abc, bd, which)
    return KeyedMap(MarkoffQuad((*abc, d), bd))


class TestFaceRecurrence:
    def check_face(self, m: KeyedMap, i: int, j: int):
        f = canonical_face("", i, j)
        inp = face_h_inputs_reference(m.boundary, m.quad_at(""), i, j)
        X, Q, R, S = inp.X, inp.Q, inp.R, inp.S
        u = {n: m.eval_region(face_side_region(f, n)) for n in range(-7, 8)}

        def step(y, z, q, r):
            return (-y - X * z + q, X * y + (X * X - 1) * z + r - X * q)

        # consecutive side values pair into recurrence states; the two
        # interleavings use the constants in opposite order
        matched = None
        for q, r in ((Q, R), (R, Q)):
            y1, z1 = step(u[-1], u[0], q, r)
            if abs(y1 - u[1]) < 1e-6 and abs(z1 - u[2]) < 1e-6:
                matched = (q, r)
                break
        assert matched is not None
        q, r = matched
        for n in range(-3, 3):
            y1, z1 = step(u[2 * n - 1], u[2 * n], q, r)
            scale = 1 + abs(u[2 * n + 1]) + abs(u[2 * n + 2])
            assert abs(y1 - u[2 * n + 1]) < 1e-9 * scale
            assert abs(z1 - u[2 * n + 2]) < 1e-9 * scale
            inv = (u[2 * n - 1] ** 2 + u[2 * n] ** 2
                   + X * u[2 * n - 1] * u[2 * n]
                   - q * u[2 * n - 1] - r * u[2 * n])
            quad_scale = (1 + abs(u[2 * n - 1]) + abs(u[2 * n])) ** 2
            assert abs(inv + S) < 1e-10 * (abs(S) + quad_scale)

    def test_side_values_obey_recurrence(self):
        m = sample_map((0.3, -0.2, 0.7), (2.3, 1.7, -0.9))
        for (i, j) in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)):
            self.check_face(m, i, j)

    def test_mode_product_equals_sigma_ratio(self):
        for omega, abc in (((0.3, -0.2, 0.7), (2.3, 1.7, -0.9)),
                           ((0, 0, 0), (2.5, 2.5, 2.5)),
                           ((1.0, 0.5, -0.3), (1.1, 2.2, 0.4))):
            m = sample_map(omega, abc)
            for (i, j) in ((1, 2), (1, 3), (2, 3), (1, 4)):
                f = canonical_face("", i, j)
                inp = face_h_inputs_reference(m.boundary, m.quad_at(""), i, j)
                X, Q, R, S = inp.X, inp.Q, inp.R, inp.S
                T = (Q * Q + R * R - X * R * Q
                     + S * (X * X - 4)) / (X * X - 4) ** 2
                sig = m.eval_sigma(f)
                expect = sig / (X * X - 4) ** 2
                assert abs(T - expect) < 1e-9 * (1 + abs(expect))

    def test_matches_published_substitution_at_zero_boundary(self):
        m = sample_map((0, 0, 0), (2.4, 1.9, 0.8))
        quad = m.quad_at("")
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            mine = h_value(face_h_inputs_reference(m.boundary, quad, i, j)).H
            pub = h_value(specialize_n13(quad[i - 1], quad[j - 1],
                                         (0, 0, 0))).H
            assert mine == pytest.approx(pub, rel=1e-9)


class TestHStar:
    def make(self, abc, omega=(1.0, 0.0, 0.0)):
        return sample_map(omega, abc)

    def test_finite_and_dominates_region_floor(self):
        m = self.make((2.0, 2.0, 0.5))
        f = canonical_face("", 1, 2)
        K = 3.0
        got = h_star(m.boundary, f, m.quad_at(f.anchor), K)
        M = m.boundary.M
        assert math.isfinite(got)
        assert got >= (K * K + 2 * M) / 2.0

    def test_infinite_on_band(self):
        m = KeyedMap(MarkoffQuad((1.0, 1.5, 0, 0), ZERO, on_variety=False))
        assert h_star(m.boundary, canonical_face("", 1, 2), m.quad_at(""),
                      2.0) == math.inf

    def test_infinite_when_sigma_vanishes(self):
        # a^2 + b^2 = 4 kills the first factor while ab stays far from
        # the real band
        b = cmath.sqrt(4 - 9)
        m = KeyedMap(MarkoffQuad((3.0, b, 0, 0), ZERO, on_variety=False))
        f = canonical_face("", 1, 2)
        assert dist_to_interval(complex(m.eval_face(f))) > 1
        assert abs(m.eval_sigma(f)) < 1e-9
        assert h_star(m.boundary, f, m.quad_at(f.anchor), 2.0) == math.inf

    def test_infinite_on_zero_region(self):
        bd = BoundaryData((5.0, 0.0, 0.0))
        m = KeyedMap(MarkoffQuad((0.0, 3.0, 1, 1), bd, on_variety=False))
        f = canonical_face("", 1, 2)
        assert dist_to_interval(complex(m.eval_face(f))) > 1
        assert abs(m.eval_sigma(f)) > 1
        assert h_star(m.boundary, f, m.quad_at(f.anchor), 7.0) == math.inf

    def test_raises_on_overflowed_values(self):
        m = KeyedMap(MarkoffQuad((1e120, 1e120, 1e120, 1e120), ZERO,
                                   on_variety=False))
        with pytest.raises(OverflowError):
            h_star(m.boundary, canonical_face("1", 1, 2), m.quad_at("1"), 2.0)
