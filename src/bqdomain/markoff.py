"""Lazy evaluation of region and face values over the colored tree.

A map is determined by boundary data and a root quadruple; the value of
a region is obtained by replaying one elementary move per letter of its
anchor word.  ``quad_at`` memoizes the quad of every vertex it reaches,
so the memo is closed under prefixes: a lookup finds the longest
memoized prefix of the word and replays the remaining letters forward,
iteratively, so words of any length are safe.  The memo serves keyed
lookups: edge orientation and vertex classification here, and tests.
The walks of ``bq.decide_bq`` and ``fib`` carry the quad from ``root``
themselves, one capped ``moved_value`` per move.  A move of color c
rewrites only entry c, so carried and memoized quads agree bit for bit.
The arithmetic (the move, the face value, sigma, with lambdas from
``lam_table``) is ``algebra``'s; this module adds saturation and a memo.
Values whose modulus exceeds an overflow cap, the root quad's included,
are replaced by a symbolic Huge marker that compares larger than every
finite modulus and absorbs + - and *, so deep descent never degrades
into NaN; ``_cap`` makes HUGE (``bq.attracting_arc`` applies its rule to
the modulus it reads anyway) and ``modulus`` alone reads it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, Tuple, Union

from .algebra import BoundaryData, MarkoffQuad, face_value, moved_value, sigma
from .tree import (EdgeKey, FaceKey, RegionKey, VertexWord,
                   edge_surrounding, neighbors)

OVERFLOW_CAP = 1e150


class Huge:
    """Marker for an overflowed value: modulus +inf, absorbs + - and *."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __abs__(self) -> float:
        return math.inf

    def _absorb(self, other=None) -> "Huge":
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = _absorb
    __mul__ = __rmul__ = __neg__ = _absorb

    def __repr__(self) -> str:
        return "HUGE"


HUGE = Huge()

Value = Union[complex, Huge]
Quad = Tuple[Value, Value, Value, Value]


# The modulus of a Value: abs, which Huge answers with +inf.
modulus = abs


def _cap(v: Value) -> Value:
    """v, or HUGE when |v| exceeds the cap, is not finite (the comparison
    is false for NaN and inf parts and HUGE) or is too large for abs."""
    try:
        if abs(v) <= OVERFLOW_CAP:
            return v
    except OverflowError:
        pass
    return HUGE


def face_value_capped(ai: Value, aj: Value, lam_ij: complex) -> Value:
    """Face value a_i*a_j - lambda_ij, saturated to HUGE on overflow."""
    return _cap(face_value(ai, aj, lam_ij))


def sigma_capped(boundary: BoundaryData, i: int, j: int, ai: Value,
                 aj: Value, psi: Value) -> Value:
    """sigma of face {i,j} from its region values and its face value psi,
    saturated to HUGE on overflow.  The third color k is the smallest
    one outside {i,j}; the lambdas come from ``lam_table``."""
    k = 1 if 1 not in (i, j) else 2 if 2 not in (i, j) else 3
    li, lj = boundary.lam_table[i - 1], boundary.lam_table[j - 1]
    return _cap(sigma(ai, aj, psi, li[j - 1], li[k - 1], lj[k - 1]))


class Orientation(Enum):
    TOWARD_CHILD = "toward_child"
    TOWARD_PARENT = "toward_parent"


class VertexClass(Enum):
    SINK = "sink"      # 4 inward arrows
    MERGE = "merge"    # 3 inward, 1 outward
    FORK = "fork"      # >= 2 outward
    SOURCE = "source"  # 4 outward (a fork as well; reported as SOURCE)


class MarkoffMap:
    """Region/face values of a quadruple propagated over the tree."""

    def __init__(self, root_quad: MarkoffQuad):
        self.boundary: BoundaryData = root_quad.boundary
        self.root_quad = root_quad
        # The capped root quad, where every carried walk starts.
        self.root: Quad = tuple(_cap(v) for v in root_quad.values)
        self._quads: Dict[VertexWord, Quad] = {"": self.root}
        self._move_terms = self.boundary.move_terms

    def quad_at(self, v: VertexWord) -> Quad:
        """Values of the four regions around vertex v, indexed by color-1."""
        quads = self._quads
        got = quads.get(v)
        if got is not None:
            return got
        n = len(v) - 1
        got = quads.get(v[:n])
        while got is None:                # the root is always memoized
            n -= 1
            got = quads.get(v[:n])
        for k in range(n, len(v)):
            got = self._move(got, int(v[k]))
            quads[v[:k + 1]] = got
        return got

    def _move(self, vals, i: int):
        out = list(vals)
        out[i - 1] = _cap(moved_value(vals, i, self._move_terms[i]))
        return tuple(out)

    def eval_region(self, r: RegionKey) -> Value:
        return self.quad_at(r.anchor)[r.color - 1]

    def region_values_at(self, f: FaceKey) -> Tuple[Value, Value]:
        i, j = f.colors
        quad = self.quad_at(f.anchor)
        return quad[i - 1], quad[j - 1]

    def eval_face(self, f: FaceKey) -> Value:
        ai, aj = self.region_values_at(f)
        return face_value_capped(ai, aj, self.boundary.lam(*f.colors))

    def eval_sigma(self, f: FaceKey) -> Value:
        ai, aj = self.region_values_at(f)
        i, j = f.colors
        psi = face_value_capped(ai, aj, self.boundary.lam(i, j))
        return sigma_capped(self.boundary, i, j, ai, aj, psi)

    def orient_edge(self, e: EdgeKey) -> Orientation:
        """Arrow points into the smaller-modulus end region (tie: child)."""
        _, (delta, delta_prime) = edge_surrounding(e)
        m_parent = modulus(self.eval_region(delta))
        m_child = modulus(self.eval_region(delta_prime))
        if m_parent < m_child:
            return Orientation.TOWARD_PARENT
        return Orientation.TOWARD_CHILD

    def points_toward(self, e: EdgeKey, v: VertexWord) -> bool:
        """Whether the arrow on e points toward endpoint v."""
        o = self.orient_edge(e)
        if v == e.child:
            return o is Orientation.TOWARD_CHILD
        if v == e.parent:
            return o is Orientation.TOWARD_PARENT
        raise ValueError("%r is not an endpoint of %r" % (v, e))

    def incident_edges(self, v: VertexWord):
        return [EdgeKey(w if len(w) > len(v) else v) for w in neighbors(v)]

    def inward_count(self, v: VertexWord) -> int:
        return sum(self.points_toward(e, v) for e in self.incident_edges(v))

    def classify_vertex(self, v: VertexWord) -> VertexClass:
        inward = self.inward_count(v)
        if inward == 4:
            return VertexClass.SINK
        if inward == 3:
            return VertexClass.MERGE
        if inward == 0:
            return VertexClass.SOURCE
        return VertexClass.FORK
