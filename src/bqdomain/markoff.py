"""Region and face values of a quadruple propagated over the colored tree.

A map is boundary data and a capped root quad; the walks of
``bq.decide_bq`` and ``fib`` carry quads down from ``root``, one
``MarkoffMap._move`` per edge, and look no quad up by word.  The
arithmetic (the move, the face value, sigma, with lambdas from
``lam_table``) is ``algebra``'s; this module adds saturation.
Values whose modulus exceeds an overflow cap, the root quad's included,
are replaced by a symbolic Huge marker that compares larger than every
finite modulus and absorbs + - and *, so deep descent never degrades
into NaN; ``_cap`` makes HUGE (``bq.attracting_arc`` applies its rule to
the modulus it reads anyway) and ``modulus`` alone reads it.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

from .algebra import BoundaryData, MarkoffQuad, face_value, moved_value, sigma

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


class MarkoffMap:
    """Boundary data, the capped root quad and the elementary move."""

    def __init__(self, root_quad: MarkoffQuad):
        self.boundary: BoundaryData = root_quad.boundary
        self.root_quad = root_quad
        # The capped root quad, where every carried walk starts.
        self.root: Quad = tuple(_cap(v) for v in root_quad.values)
        self._move_terms = self.boundary.move_terms

    def _move(self, vals, i: int):
        out = list(vals)
        out[i - 1] = _cap(moved_value(vals, i, self._move_terms[i]))
        return tuple(out)
