"""Rank-3 free-group automorphisms and their action on trace coordinates.

Words are strings over A,B,C with lowercase letters for inverses.  The
seven involutive generators and the six partial-conjugation/commutator
generators are transcribed as explicit images of (A,B,C); equality up to
inner automorphism is checked both combinatorially (bounded conjugator
search) and numerically (trace coordinates of random matrix triples).
"""

from __future__ import annotations

import cmath
import random
from typing import Dict, Iterator, Tuple

from ._record import Frozen

GENS = "ABC"
LETTERS = "ABCabc"


def invert(w: str) -> str:
    return w[::-1].swapcase()


def reduce_word(w: str) -> str:
    out: list = []
    last = ""
    for ch in w:
        if last and last == ch.swapcase():
            out.pop()
            last = out[-1] if out else ""
        else:
            out.append(ch)
            last = ch
    return "".join(out)


class Automorphism(Frozen):
    """Images of (A,B,C); inverses of generators map to inverse words."""

    _fields = ("images",)
    __slots__ = _fields + ("_table",)

    def __init__(self, images: Tuple[str, str, str]):
        a, b, c = images = tuple(reduce_word(w) for w in images)
        self._set(images, {
            "A": a, "B": b, "C": c,
            "a": invert(a), "b": invert(b), "c": invert(c)})

    def apply(self, w: str) -> str:
        table = self._table
        return reduce_word("".join(table[ch] for ch in w))


IDENTITY = Automorphism(("A", "B", "C"))


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """(f o g)(w) = f(g(w))."""
    return Automorphism(tuple(f.apply(w) for w in g.images))


# The seven involutive generators, lifted to Aut(F3).
TAU: Dict[str, Automorphism] = {
    "a": Automorphism(("CbacB", "b", "c")),
    "b": Automorphism(("a", "AcbaC", "c")),
    "c": Automorphism(("a", "b", "BacbA")),
    "d": Automorphism(("a", "b", "c")),
    "x": Automorphism(("a", "cbC", "c")),
    "y": Automorphism(("a", "b", "acA")),
    "z": Automorphism(("baB", "b", "c")),
}

# Partial conjugations and commutator insertions.
MAGNUS: Dict[str, Automorphism] = {
    "K12": Automorphism(("BAb", "B", "C")),
    "K23": Automorphism(("A", "CBc", "C")),
    "K31": Automorphism(("A", "B", "ACa")),
    "K123": Automorphism(("ABCbc", "B", "C")),
    "K231": Automorphism(("A", "BCAca", "C")),
    "K312": Automorphism(("A", "B", "CABab")),
}

# Each named generator as a product of the involutions, with the
# factors applied left to right.
IDENTITY_FACTORS: Dict[str, Tuple[str, ...]] = {
    "K12": ("z", "d"),
    "K23": ("x", "d"),
    "K31": ("y", "d"),
    "K123": ("d", "x", "a", "z"),
    "K231": ("d", "y", "b", "x"),
    "K312": ("d", "z", "c", "y"),
}


def factored(name: str) -> Automorphism:
    """The involution product for a named generator; the leftmost factor
    acts first, so the composition nests right over left."""
    out = IDENTITY
    for t in reversed(IDENTITY_FACTORS[name]):
        out = compose(out, TAU[t])
    return out


def _words_up_to(radius: int) -> Iterator[str]:
    yield ""
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for ch in LETTERS:
                if w and w[-1] == ch.swapcase():
                    continue
                u = w + ch
                nxt.append(u)
                yield u
        frontier = nxt


def equal_in_out(f: Automorphism, g: Automorphism,
                 search_radius: int = 6) -> bool:
    """Whether f = w g w^-1 for some conjugator w of bounded length.

    Tries the reduced words of length at most ``search_radius``, in
    breadth-first order.  False is inconclusive: see ``character_agree``.
    """
    images = tuple((g.apply(x), f.apply(x)) for x in GENS)
    for w in _words_up_to(search_radius):
        wi = invert(w)
        if all(reduce_word(w + y + wi) == t for y, t in images):
            return True
    return False


# ---------------------------------------------------------------------------
# Numeric evaluation through SL(2,C) triples, each matrix a pair of rows.

CHAR_WORDS = ("A", "B", "C", "ABC", "AB", "BC", "AC")

Mat = Tuple[Tuple[complex, complex], Tuple[complex, complex]]


def mat_mul(m: Mat, n: Mat) -> Mat:
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def det(m: Mat) -> complex:
    (a, b), (c, d) = m
    return a * d - b * c


def word_trace(w: str, mats: Dict[str, Mat]) -> complex:
    out: Mat = ((1, 0), (0, 1))
    for ch in w:
        out = mat_mul(out, mats[ch])
    return out[0][0] + out[1][1]


def _mat_table(triple) -> Dict[str, Mat]:
    table = dict(zip(GENS, triple))
    for gen, m in zip("abc", triple):
        (a, b), (c, d) = m
        dt = det(m)
        table[gen] = ((d / dt, -b / dt), (-c / dt, a / dt))
    return table


def random_triple(rng: random.Random):
    """A random irreducible det-1 triple; resamples near-reducible draws."""
    while True:
        mats = []
        for _ in range(3):
            m = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(2)] for _ in range(2)]
            s = cmath.sqrt(det(m))
            if abs(s) < 1e-3:
                break
            mats.append(tuple(tuple(v / s for v in row) for row in m))
        else:
            if abs(word_trace("ABab", _mat_table(mats)) - 2) >= 1e-3:
                return tuple(mats)


def character_coords(f: Automorphism, triple) -> Tuple[complex, ...]:
    mats = _mat_table(triple)
    return tuple(complex(word_trace(f.apply(w), mats)) for w in CHAR_WORDS)


def character_agree(f: Automorphism, g: Automorphism,
                    trials: int = 200, seed: int = 7) -> float:
    """Max trace-coordinate deviation between f and g over random triples.

    Zero (to rounding) when f and g agree in Out(F3), since traces are
    conjugation-invariant.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        triple = random_triple(rng)
        cf = character_coords(f, triple)
        cg = character_coords(g, triple)
        worst = max(worst, max(abs(u - v) for u, v in zip(cf, cg)))
    return worst
