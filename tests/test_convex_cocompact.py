"""Convex-cocompact characters lie in BQ, the first inclusion of the
paper's abstract.

A classical Schottky group is convex-cocompact.  For generator k, take
isometric circles of radius r about P_k and Q_k: with c = 1/r,
d = -P_k c, a = Q_k c and b = (ad - 1)/c, the matrix ((a, b), (c, d))
has determinant 1 and maps the outside of its isometric circle
|cz + d| = 1, about P_k, onto the inside of its inverse's, about Q_k.
Six centres pairwise more than 2.1 r apart make six disjoint circles,
so the three generators play ping-pong and the group they generate is
Schottky.  Its traces of the words of ``torelli.CHAR_WORDS`` are the
coordinates (a, b, c, d, x, y, z) of a point that must be InBQ.
"""

import random

from bqdomain import torelli
from bqdomain.algebra import BoundaryData, MarkoffQuad, residual_modulus
from bqdomain.bq import Status, decide_bq
from bqdomain.markoff import MarkoffMap


def schottky_triple(rng: random.Random, r: float):
    """Three generators of a classical Schottky group whose six
    isometric circles have radius r and centres uniform in [-6, 6]^2,
    redrawn until they are pairwise more than 2.1 r apart."""
    while True:
        centres = [complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
                   for _ in range(6)]
        if all(abs(z - w) > 2.1 * r
               for n, z in enumerate(centres) for w in centres[:n]):
            break
    c = 1 / r
    mats = []
    for p, q in zip(centres[::2], centres[1::2]):
        a, d = q * c, -p * c
        mats.append(((a, (a * d - 1) / c), (c, d)))
    return tuple(mats)


def schottky_points(rng: random.Random, radii, per_radius: int):
    """(values, boundary) of per_radius Schottky characters per radius."""
    points = []
    for r in radii:
        for _ in range(per_radius):
            coords = torelli.character_coords(torelli.IDENTITY,
                                              schottky_triple(rng, r))
            points.append((coords[:4], BoundaryData(coords[4:])))
    return points


def test_schottky_characters_are_in_bq():
    points = schottky_points(random.Random(5), (0.5, 1.0, 1.5), 20)
    for values, boundary in points:
        # on the variety, at MarkoffQuad's scale, far inside its tolerance
        scale = 1 + max(map(abs, values)) ** 4
        assert residual_modulus(values, boundary) <= 1e-11 * scale, values
        v = decide_bq(MarkoffMap(MarkoffQuad(values, boundary)))
        assert v.status is Status.IN_BQ, (values, boundary)
