"""Neighbor sequences along a face and the escape threshold H.

Around the boundary geodesic of a face, the values of the alternating
side regions satisfy a second-order affine recurrence whose multiplier is
the larger root of lambda + 1/lambda = X^2 - 2, where X is the face
value.  H bounds the window where such a sequence can dip below its
monotone tails; H* enlarges it so that neighboring arcs glue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .algebra import BoundaryData, face_value
from .markoff import (HUGE, Quad, Value, face_value_capped, modulus,
                      sigma_capped)
from .tree import COLORS, FaceKey


def dist_to_interval(v: complex) -> float:
    """Distance in the complex plane from v to the real segment [-2,2]."""
    t = min(max(v.real, -2.0), 2.0)
    return math.hypot(v.real - t, v.imag)


class WitnessKind(Enum):
    BQ1_VIOLATION = "bq1_violation"
    SIGMA_ZERO = "sigma_zero"
    INFINITE_ARC = "infinite_arc"


TOL_REAL = 1e-9
TOL_SIGMA = 1e-12


def face_obstruction(boundary: BoundaryData, i: int, j: int, ai: Value,
                     aj: Value) -> Tuple[Value, Optional[WitnessKind]]:
    """Face value psi of face {i,j} and its obstruction: BQ1_VIOLATION
    when psi is on the band [-2,2], SIGMA_ZERO when sigma vanishes, else
    None.  Either obstruction makes H* infinite; HUGE values show none."""
    psi = face_value_capped(ai, aj, boundary.lam(i, j))
    if modulus(psi) <= 2.0 + TOL_REAL and dist_to_interval(psi) <= TOL_REAL:
        return psi, WitnessKind.BQ1_VIOLATION
    if modulus(sigma_capped(boundary, i, j, ai, aj, psi)) <= TOL_SIGMA:
        return psi, WitnessKind.SIGMA_ZERO
    return psi, None


@dataclass(frozen=True)
class HInputs:
    Q: complex
    R: complex
    S: complex
    X: complex


@dataclass(frozen=True)
class HOutputs:
    lam: complex       # |lam| >= 1 root of lam + 1/lam = X^2 - 2
    T: complex         # product of the two geometric modes when S is the
                       # conserved quadratic of the orbit
    eta: complex       # the affine fixed point of the step map is
    zeta: complex      # (-eta, -zeta); only |eta| enters H
    W: float
    H: float           # math.inf when the threshold does not exist


def h_value(inp: HInputs) -> HOutputs:
    """Threshold data for the recurrence with parameters (Q,R,S,X).

    H is +inf when X lies on [-2,2] (the multiplier has modulus one) or
    when Q^2+R^2-XRQ+S(X^2-4) vanishes.  The W radicand is clamped at
    zero from below: the clamp only shrinks W, and a smaller W keeps H a
    valid (indeed tighter) threshold.
    """
    Q, R, S, X = inp.Q, inp.R, inp.S, inp.X
    mu = X * X - 2
    root = cmath.sqrt(mu * mu - 4)
    lam = (mu + root) / 2
    if abs(lam) < 1:
        lam = (mu - root) / 2
    denom = X * X - 4
    num = Q * Q + R * R - X * R * Q + S * denom
    if dist_to_interval(X) <= 1e-12 or abs(lam) <= 1 + 1e-12:
        return HOutputs(lam, complex("nan"), complex("nan"),
                        complex("nan"), math.inf, math.inf)
    T = num / (denom * denom)
    eta = (2 * Q - X * R) / denom
    zeta = (2 * R - X * Q) / denom
    if num == 0:
        return HOutputs(lam, T, eta, zeta, math.inf, math.inf)
    al = abs(lam)
    radicand = abs(eta) ** 2 - al * (al * al - 1)
    w = (abs(eta) + math.sqrt(max(radicand, 0.0))) \
        / (math.sqrt(abs(T)) * al * (al - 1))
    h = math.sqrt(abs(T)) * al * (w + 1) + abs(eta)
    return HOutputs(lam, T, eta, zeta, w, h)


def h_value_sym(inp: HInputs) -> float:
    """max of H over the two orderings of (Q,R) — covers both of the two
    interleaved side-region sequences along a face."""
    h1 = h_value(inp).H
    h2 = h_value(HInputs(inp.R, inp.Q, inp.S, inp.X)).H
    return max(h1, h2)


@dataclass(frozen=True)
class NeighborSeq:
    X: complex
    Q: complex
    R: complex
    y0: complex
    z0: complex

    @property
    def S(self) -> complex:
        """The S parameter matching the threshold formula: minus the
        conserved quadratic of the orbit, so that T equals the product
        of the two geometric modes."""
        y, z = self.y0, self.z0
        return -(y * y + z * z + self.X * y * z
                 - self.Q * y - self.R * z)


def simulate_neighbors(seq: NeighborSeq, n_min: int,
                       n_max: int) -> List[Tuple[complex, complex]]:
    """Orbit (y_n, z_n) for n in [n_min, n_max] of the affine recurrence

        (y,z) -> (-y - X z + Q,  X y + (X^2-1) z + R - X Q)

    iterated forward, and its exact inverse backward.  The quadratic
    y^2+z^2+Xyz-Qy-Rz is conserved along the orbit (and equals -S).
    """
    if not (n_min <= 0 <= n_max):
        raise ValueError("need n_min <= 0 <= n_max")
    X, Q, R = seq.X, seq.Q, seq.R
    cy, cz = Q, R - X * Q
    forward = [(seq.y0, seq.z0)]
    y, z = seq.y0, seq.z0
    for _ in range(n_max):
        y, z = (-y - X * z + cy, X * y + (X * X - 1) * z + cz)
        forward.append((y, z))
    backward = []
    y, z = seq.y0, seq.z0
    for _ in range(-n_min):
        u, v = y - cy, z - cz
        y, z = ((X * X - 1) * u + X * v, -X * u - v)
        backward.append((y, z))
    backward.reverse()
    return backward + forward


def specialize_torus(mu: complex, x: complex) -> HInputs:
    return HInputs(0, 0, mu - x * x, x)


def specialize_four_holed_sphere(a: complex, b: complex, c: complex,
                                 d: complex, x: complex) -> HInputs:
    s = (4 - a * a - b * b - c * c - d * d - a * b * c * d
         - (a * b + c * d) * x - x * x)
    return HInputs(b * c + a * d, a * c + b * d, s, x)


def specialize_n13(a: complex, b: complex,
                   omega: Tuple[complex, complex, complex]) -> HInputs:
    x, y, z = omega
    s = (4 - a * a - b * b - x * x - y * y - z * z
         - x * y * z - x * a * b)
    return HInputs(y * b + a * z, y * a + z * b, s, a * b - x)


def face_h_inputs(boundary: BoundaryData, quad, i: int, j: int) -> HInputs:
    """Recurrence parameters for the side-region sequence of face {i,j}.

    `quad` is the four region values at a vertex on the face's boundary
    geodesic.  The sequence regions carry the complementary colors k,l,
    and the two values a_k, a_l at the vertex seed the orbit; S is the
    conserved quadratic of the recurrence evaluated there, with the sign
    that makes T equal the product AB of the two geometric modes (and
    hence sigma/(X^2-4)^2).
    """
    k, l = [c for c in COLORS if c not in (i, j)]
    lam = boundary.lam
    ai, aj, ak, al = (quad[i - 1], quad[j - 1], quad[k - 1], quad[l - 1])
    q = lam(i, k) * ai + lam(j, k) * aj
    r = lam(j, k) * ai + lam(i, k) * aj
    x = face_value(ai, aj, lam(i, j))
    s = q * ak + r * al - ak * ak - al * al - x * ak * al
    return HInputs(q, r, s, x)


def h_star(boundary: BoundaryData, f: FaceKey, quad: Quad,
           K: float) -> float:
    """Arc-gluing threshold for face f at level K, from the quad at f's
    anchor.

    Infinite when the face shows a ``face_obstruction`` (its value sits
    on the forbidden band, or sigma vanishes), or when a bounding region
    value is zero — in each case the whole boundary geodesic stays
    attracting and no finite arc exists.
    """
    i, j = f.colors
    ai, aj = quad[i - 1], quad[j - 1]
    psi, obstruction = face_obstruction(boundary, i, j, ai, aj)
    if psi is HUGE or HUGE in quad:
        raise ValueError("h_star called on a face with overflowed values")
    lo = min(abs(ai), abs(aj))
    if obstruction is not None or lo == 0:
        return math.inf
    h_psi = h_value_sym(face_h_inputs(boundary, quad, i, j))
    M = boundary.M
    return max(h_psi, (K * K + 2 * M) / lo)
