"""Region and face values of a quadruple propagated over the colored tree.

A map is boundary data and a capped root quad; the walks of
``bq.decide_bq`` and ``fib`` carry quads down from ``root``, one
``MarkoffMap._move`` per edge, and look no quad up by word.  The
arithmetic is ``algebra``'s; this module adds saturation: ``_cap``
replaces a value that is not finite or whose modulus exceeds the cap,
the root quad's included, by HUGE = inf + inf*j.  The formulas use only
+ - and *, which never make an inf or NaN part finite again, so a value
computed from a HUGE is capped to HUGE too (``bq.attracting_arc``
applies the rule to the modulus it reads anyway).
"""

from __future__ import annotations

import math
from typing import Tuple

from .algebra import BoundaryData, MarkoffQuad, moved_value

OVERFLOW_CAP = 1e150

# The overflow marker: abs gives +inf, above every finite modulus.
HUGE = complex(math.inf, math.inf)

Quad = Tuple[complex, complex, complex, complex]


def _cap(v: complex) -> complex:
    """v, or HUGE when |v| exceeds the cap, is not finite (the comparison
    is false for NaN and inf parts) or is too large for abs."""
    try:
        if abs(v) <= OVERFLOW_CAP:
            return v
    except OverflowError:
        pass
    return HUGE


class MarkoffMap:
    """Boundary data, the capped root quad and the elementary move."""

    def __init__(self, root_quad: MarkoffQuad):
        self.boundary: BoundaryData = root_quad.boundary
        self.root_quad = root_quad
        # The capped root quad, where every carried walk starts.
        self.root: Quad = tuple(map(_cap, root_quad.values))

    def _move(self, vals, i: int):
        out = list(vals)
        out[i - 1] = _cap(moved_value(vals, i, self.boundary.move_terms[i]))
        return tuple(out)
