"""Growth values on the tree and growth diagnostics.

F assigns 1 to the three regions flanking a base edge and 2 to the three
faces containing it, then grows outward: a new region is the sum of the
three previously assigned regions at its anchor vertex, a new face the
sum of two previously assigned faces.  F equals the cyclically reduced
word length of the curve a key represents, and the ratio log+ |psi| / F
measures exponential growth of a map against it.

``FibTable`` computes F key by key and is the reference.  The
diagnostics look no key up: they read F and the map's values from one
depth-first ``ball_walk`` that carries both down the tree from the
map's root quad.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from ._record import Record
from .algebra import face_value
from .markoff import OVERFLOW_CAP, MarkoffMap, Quad, _cap
from .tree import (COLORS, FACE_PAIRS, PAIRS_WITH, ROOT, EdgeKey, FaceKey,
                   RegionKey, VertexWord, ball_vertices, canonical_face,
                   canonical_region, faces_at, regions_at)

BASE_EDGE = EdgeKey("4")

# The two endpoints of the base edge, whose colour-4 regions are seeds.
BASE_ENDS = (BASE_EDGE.parent, BASE_EDGE.child)

Key = Union[RegionKey, FaceKey]


class FibTable(Record):
    """Memoized region/face growth values relative to the root's colour-4
    base edge ``BASE_EDGE``, computed key by key: the reference for the
    values ``ball_walk`` carries."""

    __slots__ = _fields = ("_regions", "_faces")

    def __init__(self, _regions: Optional[Dict[RegionKey, int]] = None,
                 _faces: Optional[Dict[FaceKey, int]] = None):
        self._regions = {} if _regions is None else _regions
        self._faces = {} if _faces is None else _faces

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

    def face(self, f: FaceKey) -> int:
        got = self._faces.get(f)
        if got is not None:
            return got
        i, j = f.colors
        if f.anchor == "" and 4 not in f.colors:
            val = 2
        else:
            # Step back along the last letter of the anchor (or the base
            # edge color at the root): the face splits as the sum of the
            # two faces pairing the remaining pair color with each
            # complementary color.
            c = int(f.anchor[-1]) if f.anchor else 4
            o = i if j == c else j
            k, l = [m for m in COLORS if m not in (i, j)]
            val = (self.face(canonical_face(f.anchor, o, k))
                   + self.face(canonical_face(f.anchor, o, l)))
        self._faces[f] = val
        return val


def keys_to_depth(depth: int) -> Tuple[List[RegionKey], List[FaceKey]]:
    """All distinct region and face keys whose anchor lies in the ball."""
    regions, faces = set(), set()
    for v in ball_vertices(depth):
        regions.update(regions_at(v))
        faces.update(faces_at(v))
    return sorted(regions), sorted(faces)


def log_plus(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0


class GrowthReport(NamedTuple):
    kappa_lower: float
    kappa_upper: float
    argmin: Optional[Key]


def ball_walk(m: MarkoffMap, table: FibTable, depth: int) -> Iterator[
        Tuple[VertexWord, int, Quad, Tuple[int, int, int, int]]]:
    """Every vertex w of the depth ball in preorder, children in increasing
    colour, so words come in lexicographic order.

    Yields (w, last, quad, grow): last is the last letter of w (0 at the
    root), quad the values and grow the growth values of the four
    regions at w.  Both are carried down the walk, one
    ``MarkoffMap._move`` per step, and a move on colour c sets grow[c]
    to the sum of the other three; the root's growth values come from
    the table.  The stack holds O(depth) entries.
    """
    seeds = tuple(table.region(RegionKey(ROOT, c)) for c in COLORS)
    stack = [(ROOT, 0, m.root, seeds)]
    while stack:
        w, last, quad, grow = stack.pop()
        yield w, last, quad, grow
        if len(w) < depth:
            total = sum(grow)
            for c in (4, 3, 2, 1):          # popped in increasing colour
                if c != last:
                    g = list(grow)
                    g[c - 1] = total - grow[c - 1]
                    stack.append((w + str(c), c, m._move(quad, c), tuple(g)))


def _log_ratio(val: complex, f: int) -> float:
    mod = abs(val)
    # A value capped to HUGE (modulus inf) contributes the cap's scale:
    # the true ratio is at least as large.
    top = math.log(OVERFLOW_CAP) if math.isinf(mod) else log_plus(mod)
    return top / f


def growth_report(m: MarkoffMap, table: FibTable, depth: int) -> GrowthReport:
    """Extremes of log+ |psi(X)| / F(X) over the depth ball.

    The base simplices (where F is the seed value) are excluded; a
    positive lower ratio is the signature of uniform exponential growth,
    a near-zero one of a bounded orbit somewhere in the ball.

    One ``ball_walk`` visits every key: a vertex w with last letter c
    anchors the region (w, c) and the three faces (w, {c, o}), and a
    face's growth value is the sum of its two regions'.  The root's
    three faces without colour 4 contain the base edge and are seeds, so
    the root is read as if entered by the colour-4 base edge, like its
    other end "4"; the colour-4 regions at both ends are seeds as well
    and are skipped.  Regions win ties against faces, so ``argmin`` is
    the first minimal key in sorted regions, then sorted faces.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    lam = {pair: m.boundary.lam(*pair) for pair in FACE_PAIRS}
    hi = -math.inf
    lo_r = lo_f = math.inf
    arg_r = arg_f = None
    for w, last, quad, grow in ball_walk(m, table, depth):
        c = last or BASE_EDGE.color
        if w not in BASE_ENDS:
            ratio = _log_ratio(quad[c - 1], grow[c - 1])
            if ratio < lo_r:
                lo_r, arg_r = ratio, RegionKey(w, c)
            hi = max(hi, ratio)
        for i, j in PAIRS_WITH[c]:
            psi = _cap(face_value(quad[i - 1], quad[j - 1], lam[i, j]))
            ratio = _log_ratio(psi, grow[i - 1] + grow[j - 1])
            if ratio < lo_f:
                lo_f, arg_f = ratio, FaceKey(w, (i, j))
            hi = max(hi, ratio)
    if lo_f < lo_r:
        return GrowthReport(lo_f, hi, arg_f)
    return GrowthReport(lo_r, hi, arg_r)
