"""The witness test on a face and its escape threshold H.

Around the boundary geodesic of a face, the values of the alternating
side regions satisfy a second-order affine recurrence whose multiplier is
the larger root of lambda + 1/lambda = X^2 - 2, where X is the face
value.  H bounds the window where such a sequence can dip below its
monotone tails; H* enlarges it so that neighboring arcs glue.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Optional, Tuple

from .algebra import BoundaryData, face_value, sigma
from .markoff import HUGE, Quad, _cap
from .tree import EDGE_COLORS, FaceKey


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


def face_obstruction(boundary: BoundaryData, i: int, j: int, ai: complex,
                     aj: complex) -> Tuple[complex, Optional[WitnessKind]]:
    """Face value psi of face {i,j}, i < j, capped, and its obstruction:
    BQ1_VIOLATION when psi is on the band [-2,2], SIGMA_ZERO when sigma
    vanishes, else None.  Either makes H* infinite; HUGE shows neither."""
    lij, lik, ljk = boundary.lam_rows[i, j]
    psi = _cap(face_value(ai, aj, lij))
    if abs(psi) <= 2.0 + TOL_REAL and dist_to_interval(psi) <= TOL_REAL:
        return psi, WitnessKind.BQ1_VIOLATION
    if abs(_cap(sigma(ai, aj, psi, lij, lik, ljk))) <= TOL_SIGMA:
        return psi, WitnessKind.SIGMA_ZERO
    return psi, None


def _threshold(Q: complex, R: complex, S: complex, X: complex, al: float,
               denom: complex) -> Tuple[complex, complex, float, float]:
    """(T, eta, W, H) for the ordering (Q, R), given |lam| = al and
    denom = X^2 - 4.  H is inf when num is 0; past float range it raises.
    The W radicand is clamped at zero from below: the clamp only shrinks
    W, and a smaller W keeps H a valid (indeed tighter) threshold."""
    num = Q * Q + R * R - X * R * Q + S * denom
    T = num / (denom * denom)
    eta = (2 * Q - X * R) / denom
    if num == 0:
        return T, eta, math.inf, math.inf
    e = abs(eta)
    radicand = e ** 2 - al * (al * al - 1)
    t = math.sqrt(abs(T)) * al
    w = (e + math.sqrt(max(radicand, 0.0))) / (t * (al - 1))
    h = t * (w + 1) + e
    if not h < math.inf:                     # inf or NaN
        raise OverflowError("the threshold H overflowed")
    return T, eta, w, h


def h_star(boundary: BoundaryData, f: FaceKey, quad: Quad,
           K: float) -> float:
    """Arc-gluing threshold for face f at level K, from the quad at f's
    anchor: the larger of H, the threshold of the side-region recurrence,
    and the level term (K^2 + 2M) / min(|a_i|, |a_j|).

    Infinite when the face shows a ``face_obstruction`` (its value sits
    on the forbidden band, or sigma vanishes), or when a bounding region
    value is zero — in each case the whole boundary geodesic stays
    attracting and no finite arc exists.  H is computed from plain values
    with psi as X.  A face with no threshold raises OverflowError for a
    HUGE quad value or psi (tested first) or a finite H* past float
    range, and ArithmeticError for |lam| within 1e-12 of one off the band.

    H is the larger threshold of the orderings (Q, R) and (R, Q), one per
    interleaved side sequence, and one threshold per face is evaluated:
    num = Q^2 + R^2 - XQR + S(X^2 - 4) and T = num/(X^2 - 4)^2 are
    symmetric in (Q, R), and for fixed T and |lam| > 1, H = t(W + 1) +
    |eta| increases with |eta|, so the larger H has the larger |eta|.
    """
    i, j = f.colors
    ai, aj = quad[i - 1], quad[j - 1]
    psi, obstruction = face_obstruction(boundary, i, j, ai, aj)
    if psi is HUGE or HUGE in quad:
        raise OverflowError("h_star called on a face with overflowed values")
    lo = min(abs(ai), abs(aj))
    if obstruction is not None or lo == 0:
        return math.inf
    # The side regions, colored k and l, alternate along the boundary
    # geodesic, and their values obey an affine recurrence with parameters
    # (Q, R, S, X), X = psi: a_k and a_l seed it, and S is its conserved
    # quadratic there, with the sign that makes T the product AB of the
    # two geometric modes (and hence sigma/(X^2-4)^2).
    k, l = EDGE_COLORS[i, j]
    _, lik, ljk = boundary.lam_rows[i, j]
    ak, al = quad[k - 1], quad[l - 1]
    Q = lik * ai + ljk * aj
    R = ljk * ai + lik * aj
    S = Q * ak + R * al - ak * ak - al * al - psi * ak * al
    # The multiplier: the root of lam + 1/lam = X^2 - 2 with |lam| >= 1.
    # psi passed face_obstruction's band test, so |lam| > 1 exactly; but
    # psi^2 - 2 can round onto [-2,2] (psi = 1e-8j gives -2), which leaves
    # |lam| one in floats and no threshold to compute.
    mu = psi * psi - 2
    root = cmath.sqrt(mu * mu - 4)
    lam = (mu + root) / 2
    if abs(lam) < 1:
        lam = (mu - root) / 2
    denom, mod = psi * psi - 4, abs(lam)
    if mod <= 1 + 1e-12:
        raise ArithmeticError("the multiplier rounded to modulus one")
    # One threshold per face: the ordering of (Q, R) with the larger eta
    # numerator, or a NaN one, so that an overflow still raises.
    e_qr, e_rq = abs(2 * Q - psi * R), abs(2 * R - psi * Q)
    if e_rq > e_qr or e_rq != e_rq:
        Q, R = R, Q
    h = _threshold(Q, R, S, psi, mod, denom)[3]
    level = (K * K + 2 * boundary.M) / lo
    if level == math.inf > h:
        raise OverflowError("the level term of H* overflowed")
    return max(h, level)
