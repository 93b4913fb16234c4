"""Explicit curve representatives in the rank-3 free group.

Every region and face of the tree names a conjugacy class: the base
simplices around the root color-4 edge carry fixed words, and any other
key is reached by replaying one generator automorphism per letter of its
anchor.  The cyclically reduced length of the representative equals the
Fibonacci value of the key.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Union

from .torelli import Automorphism, IDENTITY, TAU, compose, cyclic_reduce
from .tree import FaceKey, RegionKey, VertexWord

# One automorphism per tree color: crossing a color-c edge replays the
# involution that flips the color-c one-sided curve.
MOVE: Dict[int, Automorphism] = {
    1: TAU["a"], 2: TAU["b"], 3: TAU["c"], 4: TAU["d"],
}

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
        self._auts: Dict[VertexWord, Automorphism] = {"": IDENTITY}

    def automorphism(self, anchor: VertexWord) -> Automorphism:
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
        return WordRep(key, cyclic_reduce(g.apply(base)))
