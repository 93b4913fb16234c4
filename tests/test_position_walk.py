"""Walking face boundaries by position with carried vertex quads.

The arc scan and the closure in ``bq`` carry the vertex quad along a
face's boundary geodesic one elementary move per step instead of
looking values up by tree key.  These tests pin that the carried values
are bitwise the memoized ones and that the non-trivial certificates
do not move; ``test_kernel`` holds the level test on these carried
quads to ``face_in_level``.
"""

import os
import subprocess
import sys

import pytest

from bqdomain.algebra import BoundaryData
from bqdomain.bq import (ArcOutcome, BqParams, Status, attracting_arc,
                         decide_bq)
from bqdomain.tree import EDGE_COLORS, EdgeKey

from conftest import shallow_faces, slice_map
from oracles import (KeyedMap, face_edge_at, face_in_level, face_side_region,
                     face_vertex_at)

POSITIONS = range(-40, 41)


def carried_quads(m: KeyedMap, f, count: int):
    """Quads at positions 0..count and 0..-count, one move per step."""
    k, l = EDGE_COLORS[f.colors]
    rays = {}
    for sign, letters in ((1, (k, l)), (-1, (l, k))):
        quad = m.quad_at(f.anchor)
        rays[0] = quad
        for t in range(count):
            quad = m._move(quad, letters[t & 1])
            rays[sign * (t + 1)] = quad
    return rays


def same(x, y) -> bool:
    """Bitwise equality: == plus repr, which tells -0.0 from 0.0."""
    return x == y and repr(x) == repr(y)


def letterwise_vertex_at(f, pos):
    k, l = EDGE_COLORS[f.colors]
    first, second = (str(k), str(l)) if pos > 0 else (str(l), str(k))
    word = f.anchor
    for n in range(abs(pos)):
        word += first if n % 2 == 0 else second
    return word


HARD = -2.25 - 2.25j


class TestCarriedQuads:
    def test_side_value_matches_region_lookup(self):
        m = slice_map(HARD)
        for f in shallow_faces():
            k, l = EDGE_COLORS[f.colors]
            quads = carried_quads(m, f, 41)
            for n in POSITIONS:
                # edge n of the positive ray reads position n; of the
                # negative ray, position n+1
                if n >= 0:
                    quad, side = quads[n], (l, k)[n & 1]
                else:
                    quad, side = quads[n + 1], (k, l)[(-n - 1) & 1]
                want = m.eval_region(face_side_region(f, n))
                assert face_side_region(f, n).color == side
                assert same(quad[side - 1], want), (f, n)

    def test_carried_quad_is_memoized_quad(self):
        m = slice_map(HARD)
        for f in shallow_faces()[::7]:
            quads = carried_quads(m, f, 40)
            for n in POSITIONS:
                assert same(quads[n], m.quad_at(face_vertex_at(f, n)))

    def test_arc_window_quads(self):
        m = slice_map(HARD)
        params = BqParams()
        K = params.level(m)
        checked = 0
        for f in shallow_faces():
            if not face_in_level(m, f, K):
                continue
            arc = attracting_arc(m, f, m.quad_at(f.anchor), K,
                                 params.max_arc_steps)
            if arc.outcome is not ArcOutcome.FINITE:
                continue
            positions = range(arc.n1, arc.n2 + 2)
            assert len(arc.quads) == len(positions)
            for n, quad in zip(positions, arc.quads):
                assert same(quad, m.quad_at(face_vertex_at(f, n)))
            checked += 1
        assert checked > 0


class TestTreeKeys:
    def test_sliced_vertex_matches_letterwise(self):
        for f in shallow_faces():
            for n in POSITIONS:
                assert face_vertex_at(f, n) == letterwise_vertex_at(f, n)

    def test_edge_is_named_by_longer_endpoint(self):
        for f in shallow_faces():
            for n in POSITIONS:
                u, v = face_vertex_at(f, n), face_vertex_at(f, n + 1)
                assert face_edge_at(f, n) == EdgeKey(max(u, v, key=len))


class TestIterativeMemo:
    def test_cold_long_word(self):
        m = slice_map(HARD)
        word = "12" * 600
        quad = m.root_quad.values
        for ch in word:
            quad = m._move(quad, int(ch))
        assert same(m.quad_at(word), quad)

    def test_prefixes_are_memoized(self):
        m = slice_map(HARD)
        word = "1234" * 50
        m.quad_at(word)
        fresh = slice_map(HARD)
        for n in (0, 1, 77, 199, 200):
            assert word[:n] in m._quads
            assert same(m._quads[word[:n]], fresh.quad_at(word[:n]))


class TestLam:
    def test_table_is_the_pairing(self):
        x, y, z = 1, 2, 3
        want = {frozenset((1, 2)): x, frozenset((3, 4)): x,
                frozenset((2, 3)): y, frozenset((1, 4)): y,
                frozenset((1, 3)): z, frozenset((2, 4)): z}
        bd = BoundaryData((x, y, z))
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    assert bd.lam(i, j) == want[frozenset((i, j))]

    @pytest.mark.parametrize("i, j", [(1, 1), (4, 4), (0, 2), (2, 0),
                                      (1, 5), (5, 1), (-1, 2)])
    def test_rejects_bad_pairs(self, i, j):
        with pytest.raises(ValueError):
            BoundaryData((1, 2, 3)).lam(i, j)


class TestHardCertificates:
    @pytest.mark.parametrize("a, edges, steps", [(-2.25 - 2.25j, 43, 16),
                                                 (3.75 + 3.75j, 39, 15)])
    def test_pinned(self, a, edges, steps):
        v = decide_bq(slice_map(a))
        assert v.status is Status.IN_BQ
        assert len(v.tree.edges) == edges
        assert v.steps_used == steps
        for f, (n1, n2) in v.tree.arc_bounds.items():
            for n in range(n1, n2 + 1):
                assert face_edge_at(f, n) in v.tree.edges


def test_check_does_not_import_numpy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bqdomain.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
