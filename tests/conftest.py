"""Shared fixtures: frozen membership fixtures and random point helpers."""

from __future__ import annotations

import random
import signal
from typing import List, Tuple

import numpy as np
import pytest

from bqdomain.algebra import (BoundaryData, CharacterPoint, MarkoffQuad,
                              RootChoice, solve_fourth)
from bqdomain.tree import FaceKey, ball_vertices, faces_at
from oracles import KeyedMap

Omega = Tuple[complex, complex, complex]

# Ten quads with uniformly large traces: (t,t,t,d) with d the
# smaller root of the vertex relation, zero boundary traces.
IN_BQ_T_VALUES = [4.0 + 0.5 * k for k in range(10)]

# Ten quads whose root vertex already carries a face value inside the
# real band [-2,2].  The fourth coordinates are frozen roots of the
# vertex relation (principal branch), validated against the brute-force
# enumeration before being recorded here.
NOT_BQ_FIXTURES: List[Tuple[Tuple[float, float, float, float], Omega]] = [
    ((0.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.0)),
    ((1.0, 1.0, 1.0, 0.6180339887498949), (0.0, 0.0, 0.0)),
    ((1.0, 1.0, 1.0, -1.618033988749895), (0.0, 0.0, 0.0)),
    ((0.5, 0.5, 0.5, 1.7413587112077265), (0.0, 0.0, 0.0)),
    ((1.2, 0.3, 0.7, 1.2867547557874297), (0.0, 0.0, 0.0)),
    ((0.9, 1.1, 0.2, 1.2973527491289583), (0.0, 0.0, 0.0)),
    ((0.4, 0.8, 1.0, 1.3318444959177214), (0.0, 0.0, 0.0)),
    ((1.0, 1.0, 0.5, 1.5208993740921255), (0.5, 0.3, 0.1)),
    ((0.6, 0.6, 0.6, 1.807852528298415), (0.2, 0.2, 0.2)),
    ((0.0, 0.0, 1.0, 1.6583123951777), (0.0, 0.5, 0.0)),
]


def in_bq_quad(t: float) -> MarkoffQuad:
    bd = BoundaryData((0.0, 0.0, 0.0))
    d = solve_fourth(t, t, t, bd, RootChoice.MINUS)
    assert abs(d.imag) < 1e-12
    return MarkoffQuad((t, t, t, d.real), bd)


def in_bq_fixtures() -> List[MarkoffQuad]:
    return [in_bq_quad(t) for t in IN_BQ_T_VALUES]


def not_bq_fixtures() -> List[MarkoffQuad]:
    return [MarkoffQuad(vals, BoundaryData(om), on_variety=False)
            for vals, om in NOT_BQ_FIXTURES]


def make_map(quad: MarkoffQuad) -> KeyedMap:
    return KeyedMap(quad)


# The render slice as a config: 16x16 pixels over a in [-6,6]^2.
SLICE_DOC = {"fixed": {"b": 3, "c": 3, "d": 0, "x": 0, "y": 0, "z": 0},
             "varying": "a", "center": [0, 0], "width": 12.0,
             "height": 12.0, "px": 16, "mode": "solve_minus",
             "budgets": {"max_faces": 500}}


def slice_map(a: complex) -> KeyedMap:
    """The render slice b=c=3, x=y=z=0, d = solve_minus."""
    zero = BoundaryData((0.0, 0.0, 0.0))
    d = solve_fourth(a, 3, 3, zero, RootChoice.MINUS)
    return KeyedMap(MarkoffQuad((a, 3, 3, d), zero, on_variety=False))


def population(n: int = 400, seed: int = 7) -> List[MarkoffQuad]:
    """The seeded population of ROADMAP's shared fixtures: for each point,
    omega and then a, b, c uniform in the complex boxes [-2,2]^2 and
    [-4,4]^2 (real part first) from ``random.Random(seed)``, and d from
    ``solve_plus``."""
    rng = random.Random(seed)

    def draw(r: float) -> complex:
        return complex(rng.uniform(-r, r), rng.uniform(-r, r))
    out = []
    for _ in range(n):
        omega = BoundaryData(tuple(draw(2) for _ in range(3)))
        abc = tuple(draw(4) for _ in range(3))
        d = solve_fourth(*abc, omega, RootChoice.PLUS)
        out.append(MarkoffQuad((*abc, d), omega))
    return out


def shallow_faces() -> List[FaceKey]:
    """Every face touching a vertex of depth <= 3, sorted."""
    faces = set()
    for v in ball_vertices(3):
        faces.update(faces_at(v))
    return sorted(faces)


def random_complex(rng: np.random.Generator, scale: float = 3.0) -> complex:
    return complex(*rng.uniform(-scale, scale, 2))


def random_on_variety_point(rng: np.random.Generator):
    """Random (a,b,c,omega) in the complex box, d solved from the
    vertex relation; returns a CharacterPoint-compatible septuple."""
    om = tuple(random_complex(rng) for _ in range(3))
    a, b, c = (random_complex(rng) for _ in range(3))
    which = RootChoice.PLUS if rng.integers(2) else RootChoice.MINUS
    d = solve_fourth(a, b, c, BoundaryData(om), which)
    return CharacterPoint(a, b, c, d, *om)


def sup_norm(pt: CharacterPoint) -> float:
    return max(abs(v) for v in (pt.a, pt.b, pt.c, pt.d, pt.x, pt.y, pt.z))


def random_markoff_map(rng: np.random.Generator) -> KeyedMap:
    pt = random_on_variety_point(rng)
    return KeyedMap(MarkoffQuad(pt.quad, pt.omega))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def time_bound():
    """Fail a test that stalls for 60 s instead of hanging the run.  A
    render's alarm exception reaches render_slice, which reaps its
    children on the way out."""
    def expire(signum, frame):
        raise TimeoutError("the test stalled")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
