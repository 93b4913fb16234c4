"""The free-group and matrix model behind the trace coordinates.

Every region and face of the tree names a conjugacy class: the base
simplices around the root color-4 edge carry fixed words, and any other
key is reached by replaying one generator automorphism per letter of its
anchor.  The cyclically reduced length of the representative equals the
Fibonacci value of the key.  A point lifts to an explicit SL(2,C) triple,
through whose traces an automorphism acts on the point.
"""

from __future__ import annotations

import cmath
from typing import Dict, NamedTuple, Union

from bqdomain.algebra import CharacterPoint
from bqdomain.torelli import (IDENTITY, TAU, Automorphism, character_coords,
                              compose, det, reduce_word)
from bqdomain.tree import FaceKey, RegionKey


def cyclic_reduce(w: str) -> str:
    return strip_cyclic_ends(reduce_word(w))


def strip_cyclic_ends(w: str) -> str:
    """The cyclic reduction of a freely reduced word w: its cancelling
    end pairs stripped."""
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w


# Crossing a color-c edge replays the involution that flips the color-c
# one-sided curve.
MOVE: Dict[int, Automorphism] = dict(zip((1, 2, 3, 4), map(TAU.get, "abcd")))

BASE_REGION_WORD: Dict[int, str] = {1: "A", 2: "B", 3: "C", 4: "ABC"}

BASE_FACE_WORD: Dict[tuple, str] = {
    (1, 2): "Ab", (1, 3): "Ac", (2, 3): "Bc",
    (1, 4): "AABC", (2, 4): "BBCA", (3, 4): "CCAB",
}

Key = Union[RegionKey, FaceKey]


class WordRep(NamedTuple):
    key: Key
    word: str     # cyclically reduced

    @property
    def length(self) -> int:
        return len(self.word)


class WordTable:
    """Replay cache: anchor word -> accumulated automorphism."""

    def __init__(self):
        self._auts: Dict[str, Automorphism] = {"": IDENTITY}

    def automorphism(self, anchor: str) -> Automorphism:
        got = self._auts.get(anchor)
        if got is not None:
            return got
        g = compose(self.automorphism(anchor[:-1]), MOVE[int(anchor[-1])])
        self._auts[anchor] = g
        return g

    def word_rep(self, key: Key) -> WordRep:
        if isinstance(key, RegionKey):
            base = BASE_REGION_WORD[key.color]
        else:
            base = BASE_FACE_WORD[key.colors]
        g = self.automorphism(key.anchor)
        # apply has freely reduced the image already.
        return WordRep(key, strip_cyclic_ends(g.apply(base)))


def lift_point(pt: CharacterPoint):
    """SL(2,C) matrices (M_A, M_B, M_C) whose seven trace coordinates are
    (a,b,c,d,x,y,z).

    M_A and M_B are put in a standard position from (a, x, b); M_C is
    solved from (c, z, y, d) in closed form.  Fails on the reducible locus
    a^2+b^2+x^2-abx-4 = 0, where that solve is singular.
    """
    a, b, c, d = pt.quad
    x, y, z = pt.x, pt.y, pt.z
    crit = a * a + b * b + x * x - a * b * x - 4
    if abs(crit) < 1e-8:
        raise ValueError("point lies on the reducible locus; no "
                         "irreducible matrix lift exists")
    root = cmath.sqrt(x * x - 4)
    eta = max((x + root) / 2, (x - root) / 2, key=abs)  # no cancellation
    ieta = 1 / eta
    # tr C = c and tr AC = z give s = c - p and q = z - ap + r; then
    # tr BC = y and tr ABC = d are e11 p + e12 r = f1, -e12 p + e22 r = f2
    e11, e12, e22 = a * ieta - b, eta - ieta, a * eta - b
    f1, f2 = y - b * c + z * ieta, d - eta * c
    p = (f1 * e22 - e12 * f2) / crit
    r = (e11 * f2 + e12 * f1) / crit
    mc = ((p, z - a * p + r), (r, c - p))
    scale = max(abs(v) for row in mc for v in row)
    if abs(det(mc) - 1) > 1e-6 * (1 + scale ** 2):
        raise ValueError("no determinant-1 solution: traces do not "
                         "satisfy the defining relation")
    return ((a, -1), (1, 0)), ((0, eta), (-ieta, b)), mc


def induced_character_map(f: Automorphism,
                          pt: CharacterPoint) -> CharacterPoint:
    """Action of f on trace coordinates through an explicit matrix lift."""
    return CharacterPoint(*character_coords(f, lift_point(pt)))
