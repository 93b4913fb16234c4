"""Trace-coordinate arithmetic on the SL(2,C) character variety of the
three-holed projective plane.

Points are septuples (a,b,c,d,x,y,z) subject to the quadratic vertex
relation; (x,y,z) are the boundary traces and (a,b,c,d) the traces of the
four one-sided curves.  Everything here is pure complex arithmetic, and
each trace identity is written once, over plain values: the vertex
relation (``quad_residual``), the elementary move (``moved_value``), the
face value and sigma.  ``markoff`` applies them over the tree and adds
only saturation.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple, Tuple

from ._record import Frozen, require_finite

DEFAULT_ON_VARIETY_TOL = 1e-9


class CharacterPoint(Frozen):
    """A septuple (a,b,c,d,x,y,z) of trace coordinates, and ``omega``,
    the ``BoundaryData`` of (x,y,z), built once with the point."""

    _fields = ("a", "b", "c", "d", "x", "y", "z")
    __slots__ = _fields + ("omega",)

    def __init__(self, a: complex, b: complex, c: complex, d: complex,
                 x: complex, y: complex, z: complex):
        require_finite(a, b, c, d, x, y, z)
        self._set(a, b, c, d, x, y, z, BoundaryData((x, y, z)))

    @property
    def quad(self) -> Tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)


class BoundaryData(Frozen):
    """Boundary traces omega = (x,y,z), their max modulus M, and the two
    lambda tables that ``lam`` and the hot loops read.  Equality, hash,
    repr and pickling use omega alone."""

    _fields = ("omega",)
    __slots__ = _fields + ("M", "move_terms", "lam_rows")

    def __init__(self, omega: Tuple[complex, complex, complex]):
        require_finite(*omega)
        x, y, z = omega
        try:
            M = max(abs(x), abs(y), abs(z))
        except OverflowError:
            raise ValueError("boundary trace past float range: %r"
                             % (omega,)) from None
        # The tables are written out from the pairing rule of ``lam``.
        # move_terms[i] is the flat row (j - 1, lambda_ij, ...) over the
        # three other colors j in increasing order, each 0-based slot
        # followed by its coefficient in ``moved_value``; and
        # lam_rows[i, j], for i < j and k the smaller of the two other
        # colors, is (lambda_ij, lambda_ik, lambda_jk), the row that
        # ``lam``, ``neighbors.face_obstruction`` and ``h_star`` read.
        self._set(omega, M,
                  {1: (1, x, 2, z, 3, y), 2: (0, x, 2, y, 3, z),
                   3: (0, z, 1, y, 3, x), 4: (0, y, 1, z, 2, x)},
                  {(1, 2): (x, z, y), (1, 3): (z, x, y), (1, 4): (y, x, z),
                   (2, 3): (y, x, z), (2, 4): (z, x, y), (3, 4): (x, z, y)})

    def lam(self, i: int, j: int) -> complex:
        """lambda_{ij} for an unordered pair of colors i,j in 1..4.

        The pairing identifies complementary pairs: {1,2}~{3,4} -> x,
        {2,3}~{1,4} -> y, {1,3}~{2,4} -> z.
        """
        if 1 <= i <= 4 and 1 <= j <= 4 and i != j:
            return self.lam_rows[min(i, j), max(i, j)][0]
        raise ValueError("bad color pair %r" % ((i, j),))


class MarkoffQuad(Frozen):
    """Ordered quadruple (a1..a4) with boundary data.

    ``on_variety`` records whether the quad is required to satisfy the
    vertex relation (to ``DEFAULT_ON_VARIETY_TOL``); raw quads are legal
    and flagged free.
    """

    __slots__ = _fields = ("values", "boundary", "on_variety")

    def __init__(self, values: Tuple[complex, complex, complex, complex],
                 boundary: BoundaryData, on_variety: bool = True):
        require_finite(*values)
        if on_variety:
            try:
                r = abs(quad_residual(values, boundary))
                scale = 1.0 + max(abs(v) for v in values) ** 4
            except OverflowError:
                raise ValueError("quad too large to test against the vertex "
                                 "relation: %r" % (values,)) from None
            if not r <= DEFAULT_ON_VARIETY_TOL * scale:
                raise ValueError(
                    "quad residual %g exceeds tolerance; "
                    "flag on_variety=False for raw quads" % r)
        self._set(values, boundary, on_variety)

    def __getitem__(self, color: int) -> complex:
        if 1 <= color <= 4:
            return self.values[color - 1]
        raise ValueError("bad color %r" % (color,))


class DerivedBoundary(NamedTuple):
    """The constants p,q,r,s derived from a character point."""

    p: complex
    q: complex
    r: complex
    s: complex

    @classmethod
    def from_point(cls, pt: CharacterPoint) -> "DerivedBoundary":
        a, b, c, d = pt.a, pt.b, pt.c, pt.d
        return cls(
            p=a * b + c * d,
            q=b * c + a * d,
            r=a * c + b * d,
            s=4 - a * a - b * b - c * c - d * d - a * b * c * d,
        )


class RootChoice(Enum):
    PLUS = "plus"
    MINUS = "minus"


class Theta(Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    X = "x"
    Y = "y"
    Z = "z"


# The involutions that act on the quad are the elementary moves.
_THETA_COLOR = {Theta.A: 1, Theta.B: 2, Theta.C: 3, Theta.D: 4}


def vertex_residual(pt: CharacterPoint) -> complex:
    """LHS - RHS of the vertex relation; zero iff pt lies on the variety."""
    return quad_residual(pt.quad, pt.omega)


def quad_residual(values, boundary: BoundaryData) -> complex:
    a1, a2, a3, a4 = values
    x, y, z = boundary.omega
    lhs = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a1 * a2 * a3 * a4
    rhs = (x * (a1 * a2 + a3 * a4) + y * (a2 * a3 + a1 * a4)
           + z * (a1 * a3 + a2 * a4)
           + 4 - x * x - y * y - z * z - x * y * z)
    return lhs - rhs


def residual_modulus(values, boundary: BoundaryData) -> float:
    """|quad_residual|, or inf when it is not finite: a part is NaN or
    infinite, or the modulus of finite parts is past float range."""
    r = quad_residual(values, boundary)
    m = math.hypot(r.real, r.imag)
    return m if math.isfinite(m) else math.inf


def solve_fourth(a: complex, b: complex, c: complex,
                 boundary: BoundaryData,
                 which_root: RootChoice = RootChoice.PLUS) -> complex:
    """Solve the vertex relation for the fourth coordinate d.

    The relation is quadratic in d; PLUS/MINUS select the branch via the
    principal square root of the discriminant (branch cut on the negative
    reals), so results are reproducible.  The two roots sum to
    y*a + z*b + x*c - a*b*c.
    """
    if not isinstance(which_root, RootChoice):
        raise ValueError("which_root must be a RootChoice, got %r"
                         % (which_root,))
    x, y, z = boundary.omega
    B = a * b * c - y * a - z * b - x * c
    C = (a * a + b * b + c * c - x * a * b - y * b * c - z * a * c
         - 4 + x * x + y * y + z * z + x * y * z)
    disc = B * B - 4 * C
    root = cmath.sqrt(disc)
    if which_root is RootChoice.PLUS:
        return (-B + root) / 2
    return (-B - root) / 2


def moved_value(vals, i: int, terms) -> complex:
    """The new a_i of the elementary move on color i:
    sum_{j!=i} lambda_ij a_j - prod_{j!=i} a_j - a_i, for a sequence of
    the four values and ``terms = boundary.move_terms[i]``, the flat row
    of the other colors' 0-based slots and lambdas.  Every move in the
    package is this expression, in this operand order: walking the arcs
    with the equal C_s + (lambda_so - a_i a_j) a_o - a_s rounds apart and
    turns the deep point a = -0.75 + 0.75j of the b = c = 3 slice from
    Undecided on max_arc_steps (1,303 steps) to max_faces (5,320)."""
    s1, l1, s2, l2, s3, l3 = terms
    a, b, c = vals[s1], vals[s2], vals[s3]
    return l1 * a + l2 * b + l3 * c - a * b * c - vals[i - 1]


def _moved(vals, i: int, boundary: BoundaryData) -> tuple:
    out = list(vals)
    out[i - 1] = moved_value(vals, i, boundary.move_terms[i])
    return tuple(out)


def elementary_move(q: MarkoffQuad, i: int) -> MarkoffQuad:
    """Replace a_i by sum_{j!=i} lambda_ij a_j - prod_{j!=i} a_j - a_i."""
    return MarkoffQuad(_moved(q.values, i, q.boundary), q.boundary,
                       on_variety=q.on_variety)


def face_value(a_i: complex, a_j: complex, lam_ij: complex) -> complex:
    """Trace of the two-sided curve bounding the pair: a_i*a_j - lambda_ij."""
    return a_i * a_j - lam_ij


def sigma(a_i: complex, a_j: complex, face: complex,
          lam_ij: complex, lam_ik: complex, lam_jk: complex) -> complex:
    """Secondary function: product of the two commutator-trace factors.

    Vanishes iff the representation restricted to one of the two
    subsurfaces cut along the face curve is reducible.  Independent of the
    choice of the third color k by the lambda-table symmetry.
    """
    f1 = a_i * a_i + a_j * a_j + lam_ij * lam_ij - a_i * a_j * lam_ij - 4
    f2 = (lam_ik * lam_ik + lam_jk * lam_jk + face * face
          - lam_ik * lam_jk * face - 4)
    return f1 * f2


def involution_theta(pt: CharacterPoint, which: Theta) -> CharacterPoint:
    """One of the seven involution generators acting on the variety."""
    a, b, c, d, x, y, z = pt.a, pt.b, pt.c, pt.d, pt.x, pt.y, pt.z
    if which in _THETA_COLOR:
        return CharacterPoint(*_moved(pt.quad, _THETA_COLOR[which], pt.omega),
                              x, y, z)
    der = DerivedBoundary.from_point(pt)
    if which is Theta.X:
        return CharacterPoint(a, b, c, d, der.p - y * z - x, y, z)
    if which is Theta.Y:
        return CharacterPoint(a, b, c, d, x, der.q - x * z - y, z)
    if which is Theta.Z:
        return CharacterPoint(a, b, c, d, x, y, der.r - x * y - z)
    raise ValueError("unknown involution %r" % (which,))
