"""Top-level acceptance checks for the whole package.

Each test freezes one advertised guarantee: tolerances, counts, and
runtime budgets are part of the contract.  The membership fixtures are
double-checked here against the independent brute-force enumeration in
oracles.py.
"""

import math
import time

import numpy as np
import pytest

from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice, Theta,
                              involution_theta, quad_residual, solve_fourth,
                              vertex_residual)
from bqdomain.bq import BqParams, Status, decide_bq
from bqdomain.fib import FibTable, growth_report, keys_to_depth
from bqdomain.markoff import HUGE
from bqdomain.render import SliceConfig, classify_pixel, render_slice
from bqdomain.torelli import (MAGNUS, TAU, character_agree, equal_in_out,
                              factored)
from bqdomain.tree import EdgeKey, ball_vertices, canonical_face, faces_at
from conftest import (NOT_BQ_FIXTURES, in_bq_fixtures, make_map,
                      not_bq_fixtures, random_markoff_map,
                      random_on_variety_point, sup_norm)
from free_group import WordTable, induced_character_map, lift_point
from oracles import (FaceTable, HInputs, KeyedMap, NeighborSeq,
                     brute_force_bq, edge_surrounding,
                     face_h_inputs_reference, face_in_level, face_side_region,
                     fork_scan, h_value, h_value_sym, neighbors,
                     points_toward, simulate_neighbors)

COORD_NAMES = ("a", "b", "c", "d", "x", "y", "z")


def test_criterion_01_involution_suite():
    """Seven involutions preserve the variety and square to the identity
    on 1000 random on-variety points, in under 5 seconds."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        pt = random_on_variety_point(rng)
        tol_res = 1e-9 * (1 + sup_norm(pt) ** 4)
        for which in Theta:
            image = involution_theta(pt, which)
            assert abs(vertex_residual(image)) <= tol_res
            twice = involution_theta(image, which)
            for name in COORD_NAMES:
                assert abs(getattr(twice, name)
                           - getattr(pt, name)) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_vertex_and_edge_equations_depth_10():
    """Vertex and edge equations hold to 1e-8 relative through the
    depth-10 ball on random maps; memoized evaluation is bitwise
    reproducible.  Under 10 seconds."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    m = random_markoff_map(rng)
    lam = m.boundary.lam
    for v in ball_vertices(10):
        quad = m.quad_at(v)
        mods = [abs(u) for u in quad if u is not HUGE]
        # past ~1e70 fourth powers leave double range; the identity is
        # meaningless there and the values are certified huge anyway
        if len(mods) == 4 and max(mods) < 1e70:
            scale = 1 + max(mods) ** 4
            assert abs(quad_residual(quad, m.boundary)) < 1e-8 * scale
    for v in ball_vertices(9):
        for c in (1, 2, 3, 4):
            if v and v[-1] == str(c):
                continue
            sides, (delta, delta_prime) = edge_surrounding(EdgeKey(v + str(c)))
            vals = [m.eval_region(r) for r in sides]
            ends = [m.eval_region(delta), m.eval_region(delta_prime)]
            if any(u is HUGE for u in vals + ends) \
                    or max(abs(u) for u in vals + ends) > 1e70:
                continue
            rhs = sum(lam(c, r.color) * u for r, u in zip(sides, vals)) \
                - vals[0] * vals[1] * vals[2]
            assert abs(ends[0] + ends[1] - rhs) < 1e-8 * (1 + abs(rhs))
    # bitwise memo agreement: two caches warmed in different orders
    m2 = KeyedMap(m.root_quad)
    for v in sorted(ball_vertices(6), key=len, reverse=True):
        m2.quad_at(v)
    for v in ball_vertices(6):
        assert m.quad_at(v) == m2.quad_at(v)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_fork_lemma():
    """Every fork vertex in the depth-8 ball of 500 random maps has an
    incident face in the level set at K = 2+M."""
    rng = np.random.default_rng(303)
    counterexamples = 0
    for k in range(500):
        m = random_markoff_map(rng)
        K = 2.0 + m.boundary.M
        forks = fork_scan(tuple(m.root_quad.values), m.boundary.omega, 8)
        for v in forks:
            if not any(face_in_level(m, f, K) for f in faces_at(v)):
                counterexamples += 1
        if k < 5:
            # the vectorized scanner mirrors the lazy evaluator
            shallow = {v for v in forks if len(v) <= 4}
            library = {v for v in ball_vertices(4) if 1 <= sum(
                points_toward(m, EdgeKey(max(v, w, key=len)), v)
                for w in neighbors(v)) <= 2}
            assert shallow == library
    assert counterexamples == 0


def test_criterion_04_neighbor_trichotomy():
    """The four orbit regimes of the side-value recurrence, and the
    mode-product identity recovered from orbit fits."""
    # case 1: |X| < 2 real constants; the conserved definite quadratic
    # confines the orbit, explicitly over |n| <= 10^4
    seq = NeighborSeq(1.2, 0.7, -0.4, 0.9, -0.3)
    c0 = -seq.S
    mu = 1 - abs(seq.X) / 2
    P = math.hypot(abs(seq.Q), abs(seq.R))
    bound = (P + math.sqrt(P * P + 4 * mu * abs(c0))) / (2 * mu)
    for y, z in simulate_neighbors(seq, -10000, 10000):
        assert math.hypot(abs(y), abs(z)) <= bound + 1e-9

    # case 2: X = 2; growth is at most quadratic in n
    seq = NeighborSeq(2.0, 0.7, -0.3, 0.5, 0.4)
    orbit = simulate_neighbors(seq, -200, 200)
    C = 10 * (1 + sum(abs(v) for v in (seq.Q, seq.R, seq.y0, seq.z0)))
    for k, (y, z) in enumerate(orbit):
        n = k - 200
        assert abs(y) + abs(z) <= C * (1 + n * n)

    # case 3: |X| > 2 and nonzero mode product; the growth ratio reaches
    # the multiplier within 1% by n = 15
    import cmath
    z0 = (-3 + cmath.sqrt(9 - 24)) / 2
    seq = NeighborSeq(3, 0, 0, 1, z0)
    out = h_value(HInputs(seq.Q, seq.R, seq.S, seq.X))
    assert abs(out.T) > 1e-6
    ys = [y for y, _ in simulate_neighbors(seq, 0, 16)]
    assert abs(ys[15]) / abs(ys[14]) == pytest.approx(abs(out.lam), rel=0.01)

    # case 4: vanishing mode product; an orbit on the invariant line
    # reaches the fixed point below 1e-6 within 200 backward steps
    # (multiplier 1.1, the smallest the guarantee covers)
    lam = 1.1
    X = math.sqrt(2 + lam + 1 / lam)
    Q, R = 0.01, -0.005
    S = -(Q * Q + R * R - X * Q * R) / (X * X - 4)
    out = h_value(HInputs(Q, R, S, X))
    assert abs(out.T) < 1e-12 and abs(out.lam) >= 1.1
    fy, fz = -out.eta.real, -out.zeta.real
    v1, v2 = 1.0, -(1 + lam) / X
    seq = NeighborSeq(X, Q, R, fy + 0.01 * v1, fz + 0.01 * v2)
    orbit = simulate_neighbors(seq, -200, 0)
    dists = [abs(y - fy) + abs(z - fz) for y, z in orbit[:101]]
    assert min(dists) < 1e-6

    # mode-product identity: the product of the two geometric modes
    # fitted from a face orbit equals sigma / (X^2 - 4)^2
    bd = BoundaryData((0.3, -0.2, 0.7))
    d = solve_fourth(2.3, 1.7, -0.9, bd, RootChoice.PLUS)
    m = KeyedMap(MarkoffQuad((2.3, 1.7, -0.9, d), bd))
    for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)):
        f = canonical_face("", i, j)
        inp = face_h_inputs_reference(bd, m.quad_at(""), i, j)
        lam_f = h_value(inp).lam
        ns = range(-5, 6)
        ys = np.array([complex(m.eval_region(face_side_region(f, 2 * n - 1)))
                       for n in ns])
        basis = np.array([[lam_f ** n, lam_f ** -n, 1.0] for n in ns],
                         dtype=complex)
        coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
        ab = coef[0] * coef[1]
        expect = m.eval_sigma(f) / (inp.X * inp.X - 4) ** 2
        assert abs(ab - expect) <= 1e-6 * abs(expect)


def test_criterion_05_h_threshold_interval():
    """Below the threshold H the side values form an interval of indices,
    and outside it they are strictly monotone, for 100 random real
    instances on [-200, 200].  Under 5 seconds."""
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    checked = 0
    while checked < 100:
        X = rng.uniform(2.05, 6.0) * rng.choice([-1.0, 1.0])
        Q, R = rng.uniform(-3, 3, 2)
        y0, z0 = rng.uniform(-3, 3, 2)
        seq = NeighborSeq(X, Q, R, y0, z0)
        inp = HInputs(Q, R, seq.S, X)
        if not abs(h_value(inp).T) > 1e-6:
            continue
        checked += 1
        H = h_value_sym(inp)
        mods = []
        for y, z in simulate_neighbors(seq, -101, 100):
            mods.extend([abs(y), abs(z)])
        mods = mods[3:]                      # indices -200 .. 200
        below = [k for k, u in enumerate(mods) if u <= H]
        if below:
            assert below == list(range(below[0], below[-1] + 1))
            lo, hi = below[0], below[-1]
        else:
            lo, hi = len(mods) // 2, len(mods) // 2 - 1
        for k in range(1, lo):
            assert mods[k - 1] > mods[k]
        for k in range(hi + 1, len(mods) - 1):
            assert mods[k + 1] > mods[k]
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_membership_oracle_agreement():
    """The decision procedure agrees with an exhaustive depth-14 face
    census on all twenty frozen fixtures, within the default edge
    budget, in under 60 seconds total."""
    t0 = time.perf_counter()
    params = BqParams()                       # max_total_edges = 100000
    for quad in in_bq_fixtures():
        report = brute_force_bq(tuple(quad.values), (0.0, 0.0, 0.0),
                                depth=14)
        assert report.verdict == "in_bq"
        verdict = decide_bq(make_map(quad), params)
        assert verdict.status is Status.IN_BQ
        assert len(verdict.tree.edges) <= params.max_total_edges
    for (values, omega), quad in zip(NOT_BQ_FIXTURES, not_bq_fixtures()):
        report = brute_force_bq(values, omega, depth=14)
        assert report.verdict == "not_bq"
        assert decide_bq(make_map(quad), params).status is Status.NOT_BQ
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_word_lengths_match_growth_values():
    """Cyclically reduced representative length equals the reference
    growth value for every region and face to depth 8, and each face
    value is the exact sum over its two bounding regions.  Under 10
    seconds."""
    from bqdomain.tree import canonical_region
    t0 = time.perf_counter()
    words, fib = WordTable(), FaceTable()
    regions, faces = keys_to_depth(8)
    for key in regions:
        assert words.word_rep(key).length == fib.region(key)
    for key in faces:
        assert words.word_rep(key).length == fib.face(key)
        i, j = key.colors
        assert fib.face(key) == (fib.region(canonical_region(key.anchor, i))
                                 + fib.region(canonical_region(key.anchor, j)))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_torelli_identities():
    """The six generator factorizations hold exactly up to conjugacy and
    numerically to 1e-8 over 200 trials; the seven involutions induce
    the matching coordinate flips on 200 lifted points.  Under 30
    seconds."""
    t0 = time.perf_counter()
    for name in MAGNUS:
        f = factored(name)
        assert equal_in_out(MAGNUS[name], f, search_radius=6)
        assert character_agree(MAGNUS[name], f, trials=200, seed=7) <= 1e-8

    pairs = {"a": Theta.A, "b": Theta.B, "c": Theta.C, "d": Theta.D,
             "x": Theta.X, "y": Theta.Y, "z": Theta.Z}
    rng = np.random.default_rng(808)
    done = 0
    while done < 200:
        pt = random_on_variety_point(rng)
        try:
            lift_point(pt)
        except ValueError:
            continue                          # reducible-locus draw
        done += 1
        scale = 1 + sup_norm(pt) ** 3
        for tau_name, which in pairs.items():
            image = induced_character_map(TAU[tau_name], pt)
            reference = involution_theta(pt, which)
            for n in COORD_NAMES:
                assert abs(getattr(image, n)
                           - getattr(reference, n)) <= 1e-8 * scale
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_renderer_determinism_and_symmetry():
    """A 64x64 slice over the fourth coordinate with all other
    coordinates zero renders identically across worker counts and runs
    within 60 seconds, and its membership classification is symmetric
    under negating the varying coordinate."""
    config = SliceConfig(
        fixed={"a": 0, "b": 0, "c": 0, "x": 0, "y": 0, "z": 0},
        varying="d", center=0j, width=8.0, height=8.0, px=(64, 64))
    t0 = time.perf_counter()
    body4, res4 = render_slice(config, workers=4)
    assert time.perf_counter() - t0 < 60.0
    body1, res1 = render_slice(config, workers=1)
    body4b, _ = render_slice(config, workers=4)
    assert body1 == body4 == body4b
    assert res1 == res4

    w, h = config.px
    status = [[classify_pixel(config, col, row)[0].status
               for col in range(w)] for row in range(h)]
    for row in range(h):
        for col in range(w):
            assert status[row][col] is status[h - 1 - row][w - 1 - col]


def test_criterion_10_growth_diagnostic_separates_fixtures():
    """Uniform exponential growth on the members (positive ratio floor at
    depth 6); a bounded face orbit drags the floor below 0.05 at depth 8
    on the non-members."""
    table = FibTable()
    for quad in in_bq_fixtures():
        assert growth_report(make_map(quad), table, 6).kappa_lower > 0
    for quad in not_bq_fixtures():
        assert growth_report(make_map(quad), table, 8).kappa_lower < 0.05
