"""Growth values on the tree and growth diagnostics.

F assigns 1 to the three regions flanking a base edge and 2 to the three
faces containing it, then grows outward: a new region is the sum of the
three previously assigned regions at its anchor vertex, a new face the
sum of two previously assigned faces.  F equals the cyclically reduced
word length of the curve a key represents, and the ratio log+ |psi| / F
measures exponential growth of a map against it.

``FibTable`` computes F of regions key by key and is the reference.  The
diagnostic ``growth_report`` looks no key up: one loop walks the ball
depth first and carries F and the map's values down the tree from the
map's root quad.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ._record import Record
from .algebra import face_value
from .markoff import OVERFLOW_CAP, MarkoffMap, _cap
from .tree import (COLORS, PAIRS_WITH, ROOT, EdgeKey, FaceKey, RegionKey,
                   ball_vertices, canonical_region, faces_at, regions_at)

BASE_EDGE = EdgeKey("4")

# The two endpoints of the base edge, whose colour-4 regions are seeds.
BASE_ENDS = (BASE_EDGE.parent, BASE_EDGE.child)

Key = Union[RegionKey, FaceKey]


class FibTable(Record):
    """Memoized region growth values relative to the root's colour-4 base
    edge ``BASE_EDGE``, computed key by key: the reference for the values
    ``growth_report`` carries, and the source of the root's seeds."""

    __slots__ = _fields = ("_regions",)

    def __init__(self, _regions: Optional[Dict[RegionKey, int]] = None):
        self._regions = {} if _regions is None else _regions

    def region(self, r: RegionKey) -> int:
        got = self._regions.get(r)
        if got is not None:
            return got
        if r.anchor == "" and r.color != 4:
            val = 1
        else:
            val = sum(self.region(canonical_region(r.anchor, c))
                      for c in COLORS if c != r.color)
        self._regions[r] = val
        return val


def keys_to_depth(depth: int) -> Tuple[List[RegionKey], List[FaceKey]]:
    """All distinct region and face keys whose anchor lies in the ball."""
    regions, faces = set(), set()
    for v in ball_vertices(depth):
        regions.update(regions_at(v))
        faces.update(faces_at(v))
    return sorted(regions), sorted(faces)


class GrowthReport(NamedTuple):
    kappa_lower: float
    kappa_upper: float
    argmin: Optional[Key]


def growth_report(m: MarkoffMap, table: FibTable, depth: int) -> GrowthReport:
    """Extremes of log+ |psi(X)| / F(X) over the depth ball.

    The base simplices (where F is the seed value) are excluded; a
    positive lower ratio is the signature of uniform exponential growth,
    a near-zero one of a bounded orbit somewhere in the ball.

    One loop walks the ball in preorder from an explicit stack, children
    popped in increasing colour, so words come in lexicographic order.
    Each stack entry holds a vertex w, its last letter (0 at the root),
    and the values and growth values of the four regions at w; a step
    on colour c makes one ``MarkoffMap._move`` and sets the growth value
    of colour c to the sum of the other three.  The root's growth values
    come from the table.  The stack holds O(3 depth) entries.

    A vertex w with last letter c anchors the region (w, c) and the
    three faces (w, {c, o}), and a face's growth value is the sum of its
    two regions'.  The root's three faces without colour 4 contain the
    base edge and are seeds, so the root is read as if entered by the
    colour-4 base edge, like its other end "4"; the colour-4 regions at
    both ends are seeds as well and are skipped.  A value capped to HUGE
    (modulus inf) counts at the cap's scale, log ``OVERFLOW_CAP``: the
    true ratio is at least as large.  Regions win ties against faces, so
    ``argmin`` is the first minimal key in sorted regions, then sorted
    faces.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    # The keys a vertex entered by colour c anchors, as 0-based slots of
    # its quad: the region (c - 1, -1) and the faces (i, j) with lambda.
    face_slots = {c: tuple((i - 1, j - 1, m.boundary.lam(i, j))
                           for i, j in PAIRS_WITH[c]) for c in COLORS}
    key_slots = {c: ((c - 1, -1, 0),) + face_slots[c] for c in COLORS}
    log, inf, log_cap = math.log, math.inf, math.log(OVERFLOW_CAP)
    move = m._move
    lo, hi, arg = inf, -inf, None
    stack = [(ROOT, 0, m.root,
              tuple(table.region(RegionKey(ROOT, c)) for c in COLORS))]
    pop, push = stack.pop, stack.append
    while stack:
        w, last, quad, grow = pop()
        c = last or BASE_EDGE.color
        for i, j, lam in face_slots[c] if w in BASE_ENDS else key_slots[c]:
            if j < 0:
                mod, f = abs(quad[i]), grow[i]
            else:
                mod = abs(_cap(face_value(quad[i], quad[j], lam)))
                f = grow[i] + grow[j]
            ratio = (log_cap if mod == inf else log(mod) if mod > 1.0
                     else 0.0) / f
            # A region wins a tie against a face, else the first key does.
            if ratio < lo or ratio == lo and j < 0 <= arg[2]:
                lo, arg = ratio, (w, i, j)
            if ratio > hi:
                hi = ratio
        if len(w) < depth:
            g1, g2, g3, g4 = grow
            # Pushed in decreasing colour, so popped in increasing colour.
            if last != 4:
                push((w + "4", 4, move(quad, 4), (g1, g2, g3, g1 + g2 + g3)))
            if last != 3:
                push((w + "3", 3, move(quad, 3), (g1, g2, g1 + g2 + g4, g4)))
            if last != 2:
                push((w + "2", 2, move(quad, 2), (g1, g1 + g3 + g4, g3, g4)))
            if last != 1:
                push((w + "1", 1, move(quad, 1), (g2 + g3 + g4, g2, g3, g4)))
    w, i, j = arg
    key = RegionKey(w, i + 1) if j < 0 else FaceKey(w, (i + 1, j + 1))
    return GrowthReport(lo, hi, key)
