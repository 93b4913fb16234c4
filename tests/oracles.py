"""Independent slow oracles and keyed references used only by the test
suite.  Where the library carries values down from the root, these look
them up by tree key: ``KeyedMap`` memoizes quads by vertex word, and the
tree helpers, ``points_toward`` and the ``*_reference`` functions build
on it.

The membership oracle enumerates every vertex of the tree to a fixed
depth with vectorized arithmetic, evaluating all six face values at each
vertex.  It knows nothing about sinks, arcs, or thresholds: a face value
on the band decides non-membership; membership evidence is that the deep
shells anchor no new face below the level threshold.  A face is counted
at its anchor vertex only (the shortest vertex on its geodesic: the one
whose incoming edge color belongs to the face's color pair), since face
values are constant along their geodesics and would otherwise be
recounted at every depth.

Values that overflow double precision saturate to inf/nan; such entries
compare as "large", which is the honest reading: a value only reaches
the saturation scale through genuine growth, and beyond modulus ~1e16
float arithmetic tracks the exact orbit in magnitude only, for the
enumerator here exactly as for the decision procedure under test.  A row
whose smallest entry modulus is at least PRUNE_AT = 1.5e154 is dropped:
every pairwise product of its entries already overflows, so no face at
the vertex or at any descendant can ever test as small.  Rows retaining
a NaN entry are counted and reported for transparency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from bqdomain.algebra import BoundaryData, face_value, moved_value, sigma
from bqdomain.bq import (CANCELLED, MAX_REPLAY, ArcOutcome, ArcResult,
                         AttractingTree, BqParams, BqVerdict, Status, Witness,
                         face_witness)
from bqdomain.fib import FibTable, GrowthReport, keys_to_depth
from bqdomain.markoff import HUGE, OVERFLOW_CAP, MarkoffMap, Quad, _cap
from bqdomain.neighbors import (TOL_REAL, TOL_SIGMA, WitnessKind, _threshold,
                                dist_to_interval)
from bqdomain.tree import (COLORS, EDGE_COLORS, FACE_PAIRS, EdgeKey, FaceKey,
                           RegionKey, canonical_face, canonical_region,
                           faces_at)


def move_cancels(m: MarkoffMap, vals, i: int, new: complex) -> bool:
    """Whether the move on color i from vals, giving new, loses 40 bits:
    |new| is at most CANCELLED times the finite sum of the moduli of the
    move's five terms, lambda_ij a_j for the other colors j in increasing
    order, their product and a_i, summed in that order."""
    others = [j for j in COLORS if j != i]
    a, b, c = (vals[j - 1] for j in others)
    try:
        total = sum(abs(m.boundary.lam(i, j) * vals[j - 1]) for j in others) \
            + abs(a * b * c) + abs(vals[i - 1])
    except OverflowError:
        return False
    return abs(new) <= total * CANCELLED < math.inf


def exact_quad_reference(m: MarkoffMap, v: str) -> Quad:
    """The quad at v from the root quad in ``fractions.Fraction`` pairs,
    the move written out from ``BoundaryData.lam``, each part rounded by
    ``Fraction.__float__`` and each value capped."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def exact(z):
        return Fraction(z.real), Fraction(z.imag)
    vals = [exact(z) for z in m.root]
    for i in map(int, v):
        new = [-part for part in vals[i - 1]]
        product = (Fraction(1), Fraction(0))
        for j in COLORS:
            if j != i:
                term = mul(exact(m.boundary.lam(i, j)), vals[j - 1])
                new = [new[0] + term[0], new[1] + term[1]]
                product = mul(product, vals[j - 1])
        vals[i - 1] = (new[0] - product[0], new[1] - product[1])
    quad = []
    for re, im in vals:
        try:
            quad.append(_cap(complex(float(re), float(im))))
        except OverflowError:
            quad.append(HUGE)
    return tuple(quad)


class KeyedMap(MarkoffMap):
    """A ``MarkoffMap`` whose ``quad_at`` memoizes the quad of every vertex
    it reaches, so the memo is closed under prefixes: a lookup replays the
    letters past the longest memoized prefix with ``_move``, iteratively,
    except that a move that ``move_cancels`` is replaced by the exact
    quad at its vertex, ``exact_quad_reference``, as ``bq.find_sink``
    replaces the descent's.  Carried and memoized quads agree bit for
    bit, and the library, which reads only ``root`` and ``_move``, leaves
    the memo at the root quad.
    """

    def __init__(self, root_quad):
        super().__init__(root_quad)
        self._quads: Dict[str, Quad] = {"": self.root}

    def quad_at(self, v: str) -> Quad:
        """Values of the four regions around vertex v, indexed by color-1."""
        quads = self._quads
        got = quads.get(v)
        if got is not None:
            return got
        n = len(v) - 1
        got = quads.get(v[:n])
        while got is None:                # the root is always memoized
            n -= 1
            got = quads.get(v[:n])
        for k in range(n, len(v)):
            i = int(v[k])
            moved = self._move(got, i)
            if move_cancels(self, got, i, moved[i - 1]):
                moved = exact_quad_reference(self, v[:k + 1])
            got = quads[v[:k + 1]] = moved
        return got

    def eval_region(self, r: RegionKey) -> complex:
        return self.quad_at(r.anchor)[r.color - 1]

    def region_values_at(self, f: FaceKey) -> Tuple[complex, complex]:
        i, j = f.colors
        quad = self.quad_at(f.anchor)
        return quad[i - 1], quad[j - 1]

    def eval_face(self, f: FaceKey) -> complex:
        ai, aj = self.region_values_at(f)
        return _cap(face_value(ai, aj, self.boundary.lam(*f.colors)))

    def eval_sigma(self, f: FaceKey) -> complex:
        (ai, aj), (i, j) = self.region_values_at(f), f.colors
        k, lam = next(c for c in COLORS if c not in (i, j)), self.boundary.lam
        return _cap(sigma(ai, aj, self.eval_face(f), lam(i, j), lam(i, k),
                          lam(j, k)))


def neighbors(v: str) -> List[str]:
    """The four adjacent vertices (parent first when it exists)."""
    children = [v + str(c) for c in COLORS if not v or str(c) != v[-1]]
    return [v[:-1]] + children if v else children


def edge_surrounding(e: EdgeKey):
    """The three side regions of e and the two color-(e) end regions.

    Returns (sides, (delta, delta_prime)) where delta is the color-(e)
    region at the parent endpoint and delta_prime the one at the child.
    """
    u, v, c = e.parent, e.child, e.color
    sides = [canonical_region(u, i) for i in COLORS if i != c]
    return sides, (canonical_region(u, c), canonical_region(v, c))


def face_vertex_at(f: FaceKey, pos: int) -> str:
    """Vertex at signed position pos on f's boundary geodesic."""
    k, l = EDGE_COLORS[f.colors]
    pair = "%d%d" % ((k, l) if pos > 0 else (l, k))
    n = abs(pos)
    return f.anchor + (pair * ((n + 1) // 2))[:n]


def face_edge_at(f: FaceKey, n: int) -> EdgeKey:
    """The n-th boundary edge of f: joins positions n and n+1, and is
    named by the one farther from the anchor."""
    return EdgeKey(face_vertex_at(f, n + 1 if n >= 0 else n))


def face_side_region(f: FaceKey, n: int) -> RegionKey:
    """Third region of the n-th boundary edge (the alternating neighbor)."""
    e = face_edge_at(f, n)
    i, j = f.colors
    m = next(c for c in COLORS if c not in (i, j) and c != e.color)
    return canonical_region(e.parent, m)


def points_toward(m: KeyedMap, e: EdgeKey, v: str) -> bool:
    """Whether the arrow on edge e points toward its endpoint v.  The
    arrow points into the color-(e) end region of smaller modulus, and
    toward the child on a tie."""
    if v not in (e.parent, e.child):
        raise ValueError("%r is not an endpoint of %r" % (v, e))
    parent, child = (abs(m.eval_region(r)) for r in edge_surrounding(e)[1])
    return (parent < child) == (v == e.parent)


class HInputs(NamedTuple):
    Q: complex
    R: complex
    S: complex
    X: complex


class NeighborSeq(NamedTuple):
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


def base_keys() -> Tuple[List[RegionKey], List[FaceKey]]:
    """The simplices carrying the seed values 1 (regions) and 2 (faces)."""
    return ([RegionKey("", c) for c in (1, 2, 3)],
            [FaceKey("", p) for p in ((1, 2), (1, 3), (2, 3))])


class FaceTable(FibTable):
    """``fib.FibTable`` plus face growth values, each the sum of two faces
    one step back, computed key by key: the reference for the face
    values ``fib.growth_report`` derives from its regions."""

    __slots__ = ("_faces",)
    _fields = ("_regions", "_faces")

    def __init__(self):
        super().__init__()
        self._faces = {}

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


def log_plus(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0


def ball_walk(m: MarkoffMap, depth: int) -> Iterator[Quad]:
    """The quad of every vertex of the depth ball in preorder, children in
    increasing colour, so words come in lexicographic order: the walk of
    ``fib.growth_report``, as a generator, carrying quads down the tree
    with one ``MarkoffMap._move`` per step."""
    stack = [("", 0, m.root)]
    while stack:
        w, last, quad = stack.pop()
        yield quad
        if len(w) < depth:
            for c in (4, 3, 2, 1):          # popped in increasing colour
                if c != last:
                    stack.append((w + str(c), c, m._move(quad, c)))


def upper_bound_holds(m: MarkoffMap, depth: int) -> bool:
    """log+ of each quad value is controlled by the other three plus a
    universal additive constant, at every vertex of the ball."""
    slack = math.log(32.0)
    for quad in ball_walk(m, depth):
        logs = [log_plus(abs(q)) for q in quad]
        if any(logs[i] > sum(logs) - logs[i] + slack + 1e-9 for i in range(4)):
            return False
    return True


PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

PRUNE_AT = 1.5e154   # PRUNE_AT**2 > float64 max


def lam_of(omega, i: int, j: int) -> complex:
    x, y, z = omega
    pair = frozenset((i, j))
    if pair in (frozenset((1, 2)), frozenset((3, 4))):
        return x
    if pair in (frozenset((2, 3)), frozenset((1, 4))):
        return y
    return z


@dataclass
class OracleReport:
    verdict: str                      # "in_bq" | "not_bq" | "unknown"
    band_face_value: Optional[complex]
    sigma_zero_hit: bool
    new_level_faces_per_depth: List[int]  # faces anchored at each depth
    rows_per_depth: List[int]
    pruned_rows: int
    kept_nan_rows: int

    @property
    def total_level_faces(self) -> int:
        return sum(self.new_level_faces_per_depth)


def fork_scan(quad, omega, depth: int) -> List[str]:
    """Vertices in the depth ball with at least two outgoing arrows.

    Mirrors the lazy evaluator's semantics exactly: values are capped to
    +inf past 1e150 (so capped entries propagate and tie), the arrow on
    an edge points into the strictly smaller end region with ties broken
    toward the deeper endpoint.  Vectorized level-by-level enumeration.
    """
    cap = 1e150
    lam = {p: complex(lam_of(omega, *p)) for p in PAIRS}

    def saturate(vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        mods = np.abs(vals)
        bad = np.isnan(mods) | (mods > cap)
        vals = np.where(bad, complex(np.inf, 0.0), vals)
        mods = np.where(bad, np.inf, mods)
        return vals, mods

    quads = np.array([quad], dtype=np.complex128)
    quads, mods = saturate(quads)
    words = np.array([""], dtype=object)
    last = np.array([0], dtype=np.int8)
    prev_mod = np.array([np.inf])          # parent-edge far modulus

    forks: List[str] = []
    with np.errstate(all="ignore"):
        for level in range(depth + 1):
            n = len(quads)
            outgoing = np.zeros(n, dtype=np.int64)
            has_parent = last != 0
            own_last = mods[np.arange(n), np.maximum(last, 1) - 1]
            outgoing += has_parent & (prev_mod < own_last)
            children = []
            for c in (1, 2, 3, 4):
                rows = last != c
                if not rows.any():
                    continue
                q = quads[rows]
                others = [m for m in (1, 2, 3, 4) if m != c]
                acc = np.zeros(rows.sum(), dtype=np.complex128)
                prod = np.ones(rows.sum(), dtype=np.complex128)
                for m in others:
                    col = q[:, m - 1]
                    acc = acc + lam[tuple(sorted((c, m)))] * col
                    prod = prod * col
                new = acc - prod - q[:, c - 1]
                qc = q.copy()
                qc[:, c - 1] = new
                qc, mc = saturate(qc)
                outgoing[rows] += mc[:, c - 1] <= mods[rows, c - 1]
                children.append((c, rows, qc, mc))
            forks.extend(words[outgoing >= 2])
            if level == depth:
                break
            nq, nw, nl, npm, nm = [], [], [], [], []
            for c, rows, qc, mc in children:
                nq.append(qc)
                nm.append(mc)
                nw.append(np.array([w + str(c) for w in words[rows]],
                                   dtype=object))
                nl.append(np.full(len(qc), c, dtype=np.int8))
                npm.append(mods[rows, c - 1])
            quads = np.concatenate(nq)
            mods = np.concatenate(nm)
            words = np.concatenate(nw)
            last = np.concatenate(nl)
            prev_mod = np.concatenate(npm)
    return forks


def brute_force_bq(quad, omega, depth: int = 14, K: Optional[float] = None,
                   tol_real: float = 1e-9, tol_sigma: float = 1e-12,
                   tail: int = 3, chunk: int = 500000) -> OracleReport:
    """Enumerate all vertices to `depth` and classify by face census."""
    x, y, z = omega
    M = max(abs(x), abs(y), abs(z))
    if K is None:
        K = 2.0 + M
    limit = K * K + M

    # Real inputs stay in float64: saturation then yields clean +-inf,
    # whereas complex dtype manufactures NaN from inf*0j imaginary parts.
    is_real = all(complex(v).imag == 0 for v in quad) \
        and all(complex(v).imag == 0 for v in omega)
    dtype = np.float64 if is_real else np.complex128
    lam = {p: lam_of(omega, *p) for p in PAIRS}
    if is_real:
        lam = {p: v.real if isinstance(v, complex) else float(v)
               for p, v in lam.items()}

    band_value: Optional[complex] = None
    sigma_zero = False
    hits: List[int] = []
    rows: List[int] = []
    pruned = 0
    kept_nan = 0

    quads = np.array([quad], dtype=dtype)
    last = np.array([0], dtype=np.int8)       # 0 = root, no incoming color

    with np.errstate(all="ignore"):
        for level in range(depth + 1):
            n_new = 0
            rows.append(len(quads))
            for (i, j) in PAIRS:
                ai, aj = quads[:, i - 1], quads[:, j - 1]
                fv = ai * aj - lam[(i, j)]
                re, im = fv.real, fv.imag
                band = ((np.abs(im) <= tol_real)
                        & (re >= -2 - tol_real) & (re <= 2 + tol_real))
                if band.any() and band_value is None:
                    band_value = complex(fv[np.argmax(band)])
                in_level = ((np.abs(fv) < limit)
                            & ((np.abs(ai) < K) | (np.abs(aj) < K)))
                anchored = (last == i) | (last == j) | (last == 0)
                n_new += int(np.count_nonzero(in_level & anchored))
                check = in_level | band
                if check.any():
                    k = next(c for c in (1, 2, 3, 4) if c not in (i, j))
                    li, lj = lam[tuple(sorted((i, k)))], \
                        lam[tuple(sorted((j, k)))]
                    lij = lam[(i, j)]
                    av, bv, f = ai[check], aj[check], fv[check]
                    s = ((av * av + bv * bv + lij * lij
                          - av * bv * lij - 4)
                         * (li * li + lj * lj + f * f - li * lj * f - 4))
                    if (np.abs(s) <= tol_sigma).any():
                        sigma_zero = True
            hits.append(n_new)
            if band_value is not None or level == depth:
                break
            # children: one per color other than the incoming edge
            child_quads, child_last = [], []
            for start in range(0, len(quads), chunk):
                q = quads[start:start + chunk]
                lst = last[start:start + chunk]
                for c in (1, 2, 3, 4):
                    keep = lst != c
                    if not keep.any():
                        continue
                    qc = q[keep].copy()
                    others = [m for m in (1, 2, 3, 4) if m != c]
                    acc = np.zeros(len(qc), dtype=dtype)
                    prod = np.ones(len(qc), dtype=dtype)
                    for m in others:
                        col = qc[:, m - 1]
                        acc += lam[tuple(sorted((c, m)))] * col
                        prod *= col
                    qc[:, c - 1] = acc - prod - qc[:, c - 1]
                    # An entry is "huge" when its modulus overflows or is
                    # indeterminate; |inf + nan*j| is inf, so only a fully
                    # indeterminate modulus counts as NaN here.
                    mods = np.abs(qc)
                    isnan = np.isnan(mods)
                    small = np.where(isnan, np.inf,
                                     mods).min(axis=1) < PRUNE_AT
                    pruned += int(np.count_nonzero(~small))
                    kept_nan += int(np.count_nonzero(
                        isnan[small].any(axis=1)))
                    qc = qc[small]
                    child_quads.append(qc)
                    child_last.append(np.full(len(qc), c, dtype=np.int8))
            if not child_quads:
                quads = np.empty((0, 4), dtype=np.complex128)
                last = np.empty(0, dtype=np.int8)
            else:
                quads = np.concatenate(child_quads)
                last = np.concatenate(child_last)

    if band_value is not None:
        verdict = "not_bq"
    elif sigma_zero:
        verdict = "not_bq"
    else:
        deep = hits[-tail:] if len(hits) > tail else []
        empty = bool(deep) and all(h == 0 for h in deep)
        verdict = "in_bq" if empty else "unknown"
    return OracleReport(verdict, band_value, sigma_zero, hits, rows,
                        pruned, kept_nan)


def growth_report_reference(m: KeyedMap, table: FaceTable,
                            depth: int) -> GrowthReport:
    """``fib.growth_report`` by keys: every region and face key of the
    depth ball, sorted regions then sorted faces, valued through the
    memo (``eval_region``/``eval_face``) and the recursive ``FaceTable``."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    regions, faces = keys_to_depth(depth)
    base_r, base_f = base_keys()
    skip = set(base_r) | set(base_f) | {RegionKey("", 4), RegionKey("4", 4)}
    lo, hi, argmin = math.inf, -math.inf, None
    for key in list(regions) + list(faces):
        if key in skip:
            continue
        region = isinstance(key, RegionKey)
        val = m.eval_region(key) if region else m.eval_face(key)
        mod = abs(val)
        top = math.log(OVERFLOW_CAP) if math.isinf(mod) else log_plus(mod)
        ratio = top / (table.region(key) if region else table.face(key))
        if ratio < lo:
            lo, argmin = ratio, key
        hi = max(hi, ratio)
    return GrowthReport(lo, hi, argmin)


def canonical_region_reference(v: str, c: int) -> RegionKey:
    """``tree.canonical_region`` as a loop over the trailing letters."""
    s = str(c)
    n = len(v)
    while n > 0 and v[n - 1] != s:
        n -= 1
    return RegionKey(v[:n], c)


def canonical_face_reference(v: str, i: int, j: int) -> FaceKey:
    """``tree.canonical_face`` as a loop over the trailing letters."""
    i, j = sorted((i, j))
    keep = (str(i), str(j))
    n = len(v)
    while n > 0 and v[n - 1] not in keep:
        n -= 1
    return FaceKey(v[:n], (i, j))


class HOutputs(NamedTuple):
    lam: complex       # |lam| >= 1 root of lam + 1/lam = X^2 - 2
    T: complex         # product of the two geometric modes when S is the
                       # conserved quadratic of the orbit
    eta: complex       # the affine fixed point of the step map is
    zeta: complex      # (-eta, -zeta); only |eta| enters H
    W: float
    H: float           # math.inf when the threshold does not exist


def h_value(inp: HInputs) -> HOutputs:
    """Threshold data of the recurrence with parameters (Q,R,S,X), for the
    ordering (Q, R): the multiplier as ``neighbors.h_star`` takes it, and
    T, eta, W, H from ``neighbors._threshold``.  H is +inf when X
    lies on [-2,2] (the multiplier has modulus one) or when
    Q^2+R^2-XRQ+S(X^2-4) vanishes."""
    Q, R, S, X = inp
    mu = X * X - 2
    root = cmath.sqrt(mu * mu - 4)
    lam = (mu + root) / 2
    if abs(lam) < 1:
        lam = (mu - root) / 2
    denom = X * X - 4
    if dist_to_interval(X) <= 1e-12 or abs(lam) <= 1 + 1e-12:
        return HOutputs(lam, complex("nan"), complex("nan"),
                        complex("nan"), math.inf, math.inf)
    T, eta, w, h = _threshold(Q, R, S, X, abs(lam), denom)
    return HOutputs(lam, T, eta, (2 * R - X * Q) / denom, w, h)


def h_value_sym(inp: HInputs) -> float:
    """The larger of ``h_value``'s H over both orderings of (Q,R), an
    infinite H in either winning over the other's overflow: the
    two-ordering reference for ``neighbors.h_star``, which evaluates one
    threshold per face, the ordering with the larger |eta|."""
    Q, R, S, X = inp
    try:
        h = h_value(inp).H
    except ArithmeticError:
        if h_value(HInputs(R, Q, S, X)).H < math.inf:
            raise
        return math.inf
    return h if h == math.inf else max(h, h_value(HInputs(R, Q, S, X)).H)


def h_value_reference(inp: HInputs) -> float:
    """H of ``h_value`` for one ordering, the multiplier and the threshold
    computed afresh."""
    Q, R, S, X = inp.Q, inp.R, inp.S, inp.X
    mu = X * X - 2
    root = cmath.sqrt(mu * mu - 4)
    lam = (mu + root) / 2
    if abs(lam) < 1:
        lam = (mu - root) / 2
    denom = X * X - 4
    num = Q * Q + R * R - X * R * Q + S * denom
    if dist_to_interval(X) <= 1e-12 or abs(lam) <= 1 + 1e-12:
        return math.inf
    T = num / (denom * denom)
    eta = (2 * Q - X * R) / denom
    if num == 0:
        return math.inf
    al = abs(lam)
    radicand = abs(eta) ** 2 - al * (al * al - 1)
    w = (abs(eta) + math.sqrt(max(radicand, 0.0))) \
        / (math.sqrt(abs(T)) * al * (al - 1))
    return math.sqrt(abs(T)) * al * (w + 1) + abs(eta)


def face_h_inputs_reference(boundary: BoundaryData, quad, i: int,
                            j: int) -> HInputs:
    """The recurrence parameters (Q, R, S, X) that ``neighbors.h_star``
    computes for face {i,j} from the quad at a vertex on its boundary,
    with every lambda read by ``lam`` and X the face value."""
    k, l = [c for c in COLORS if c not in (i, j)]
    lam = boundary.lam
    ai, aj, ak, al = (quad[i - 1], quad[j - 1], quad[k - 1], quad[l - 1])
    q = lam(i, k) * ai + lam(j, k) * aj
    r = lam(j, k) * ai + lam(i, k) * aj
    x = face_value(ai, aj, lam(i, j))
    s = q * ak + r * al - ak * ak - al * al - x * ak * al
    return HInputs(q, r, s, x)


def h_star_reference(boundary: BoundaryData, f: FaceKey, quad,
                     K: float) -> float:
    """``neighbors.h_star`` from ``lam`` calls, HInputs and one
    ``h_value_reference`` per ordering of (Q, R).  Off the band, a
    multiplier whose modulus rounds to within 1e-12 of one raises
    ArithmeticError, as in ``h_star``."""
    i, j = f.colors
    ai, aj = quad[i - 1], quad[j - 1]
    lam = boundary.lam
    psi = _cap(face_value(ai, aj, lam(i, j)))
    k = next(c for c in COLORS if c not in (i, j))
    sig = HUGE if HUGE in (ai, aj, psi) else \
        _cap(sigma(ai, aj, psi, lam(i, j), lam(i, k), lam(j, k)))
    band = abs(psi) <= 2.0 + TOL_REAL \
        and dist_to_interval(psi) <= TOL_REAL
    if psi is HUGE or HUGE in quad:
        raise OverflowError("h_star called on a face with overflowed values")
    lo = min(abs(ai), abs(aj))
    if band or abs(sig) <= TOL_SIGMA or lo == 0:
        return math.inf
    inp = face_h_inputs_reference(boundary, quad, i, j)
    mu = inp.X * inp.X - 2
    roots = [(mu + s * cmath.sqrt(mu * mu - 4)) / 2 for s in (1, -1)]
    if max(map(abs, roots)) <= 1 + 1e-12:
        raise ArithmeticError("the multiplier rounded to modulus one")
    h_psi = max(h_value_reference(inp),
                h_value_reference(HInputs(inp.R, inp.Q, inp.S, inp.X)))
    return max(h_psi, (K * K + 2 * boundary.M) / lo)


def move_reference(m: MarkoffMap, vals, i: int):
    """``MarkoffMap._move`` with the saturation rule written out: HUGE
    when the quad holds a HUGE, else the capped ``moved_value``."""
    out = list(vals)
    out[i - 1] = HUGE if HUGE in vals \
        else _cap(moved_value(vals, i, m.boundary.move_terms[i]))
    return tuple(out)


def attracting_arc_reference(m: MarkoffMap, f: FaceKey, quad,
                             params: BqParams) -> ArcResult:
    """``bq.attracting_arc`` with one ``move_reference`` per step, the
    escape state in per-parity lists and ``h_star_reference``; a
    threshold that raises ArithmeticError ends it with OVERFLOW."""
    K = params.level(m)
    if HUGE in quad:
        return ArcResult(ArcOutcome.OVERFLOW)
    try:
        h = h_star_reference(m.boundary, f, quad, K)
    except ArithmeticError:
        return ArcResult(ArcOutcome.OVERFLOW)
    if math.isinf(h):
        return ArcResult(ArcOutcome.INFINITE)
    k, l = EDGE_COLORS[f.colors]
    steps = 0
    rays = []
    for letters in ((k, l), (l, k)):
        quads = [quad]
        prev: List[Optional[float]] = [None, None]   # parity -> modulus
        escaped = [False, False]
        window = 0
        t = 0
        while not (escaped[0] and escaped[1]):
            if steps >= params.max_arc_steps:
                return ArcResult(ArcOutcome.BUDGET, steps=steps)
            steps += 1
            p = t & 1
            if t:
                quads.append(move_reference(m, quads[-1], letters[1 - p]))
            u = abs(quads[t][letters[1 - p] - 1])
            if u < h:
                window = t + 1
                escaped = [False, False]
            elif u == prev[p] == math.inf:
                return ArcResult(ArcOutcome.OVERFLOW, steps=steps)
            else:
                escaped[p] = prev[p] is not None and u > prev[p]
            prev[p] = u
            t += 1
        rays.append((quads, window))
    (pos_quads, hi), (neg_quads, lo) = rays
    return ArcResult(ArcOutcome.FINITE, n1=-lo, n2=hi - 1, steps=steps,
                     quads=neg_quads[lo:0:-1] + pos_quads[:hi + 1])


def boundary_face(f: FaceKey, n: int, i: int, j: int) -> FaceKey:
    """The {i,j} face at position n of f's boundary geodesic, for a sorted
    pair (i, j) other than f.colors: canonical_face(face_vertex_at(f, n),
    i, j), built from the position instead of scanning the word.

    Boundary edge t has color (k, l)[t & 1], and the last letter of the
    word at n != 0 is the color of the edge toward the anchor.  A pair
    that lacks that letter holds the other edge color, the letter before
    it, so the anchor drops exactly one letter; only when that empties
    the walked prefix does the anchor's own word need a scan.
    """
    k, l = EDGE_COLORS[f.colors]
    if n > 0 and (k, l)[(n - 1) & 1] not in (i, j):
        n -= 1
    elif n < 0 and (k, l)[n & 1] not in (i, j):
        n += 1
    if n == 0:
        return canonical_face(f.anchor, i, j)
    return FaceKey(face_vertex_at(f, n), (i, j))


def values_in_level(ai: complex, aj: complex, lam_ij: complex, K: float,
                    M: float) -> bool:
    """The level test on a face's two region values and lambda_ij:
    |psi(face)| < K^2 + M and at least one bounding region below K."""
    return (abs(ai) < K or abs(aj) < K) \
        and abs(_cap(face_value(ai, aj, lam_ij))) < K * K + M


def face_in_level(m: KeyedMap, f: FaceKey, K: float) -> bool:
    """The level test on a face key, its values read through the memo."""
    ai, aj = m.region_values_at(f)
    return values_in_level(ai, aj, m.boundary.lam(*f.colors), K, m.boundary.M)


def decide_bq_reference(m: KeyedMap,
                        params: BqParams = BqParams()) -> BqVerdict:
    """``bq.decide_bq`` by keys: the descent moves between vertex words,
    the seeds are every in-level face at the sink, each popped face reads
    its anchor quad through the memo (``quad_at``) instead of carrying
    it, its arc is ``attracting_arc_reference``, and every window vertex
    is screened on all five other pairs."""
    K = params.level(m)
    v, steps = "", None
    for step in range(params.max_descent_steps + 1):
        faces = faces_at(v)
        for f in faces:
            w = face_witness(m, f, m.quad_at(f.anchor))
            if w is not None:
                return BqVerdict(Status.NOT_BQ, witness=w, steps_used=step)
        if any(face_in_level(m, f, K) for f in faces):
            steps = step
            break
        # The moves are ranked by their float values, and the edge back is
        # never taken: a move that cancels is redone exactly only once it
        # is taken, when the memo replaces its quad.
        quad = m.quad_at(v)
        best = None
        for c in COLORS:
            if v[-1:] != str(c):
                far_mod = abs(m._move(quad, c)[c - 1])
                if far_mod < abs(quad[c - 1]):
                    if best is None or far_mod < best[0]:
                        best = (far_mod, c)
        if best is None:
            steps = step
            break
        far_mod, c = best
        v += str(c)
        if len(v) > MAX_REPLAY and move_cancels(m, quad, c, far_mod):
            return BqVerdict(Status.UNDECIDED, budget_hit="precision",
                             steps_used=step + 1)
    if steps is None:
        return BqVerdict(Status.UNDECIDED, budget_hit="max_descent_steps",
                         steps_used=params.max_descent_steps)

    seeds = [f for f in faces_at(v) if face_in_level(m, f, K)]
    if not seeds:
        budget = "overflow" if HUGE in m.quad_at(v) else "no_seed_face"
        return BqVerdict(Status.UNDECIDED, budget_hit=budget,
                         steps_used=steps)
    tree = AttractingTree()
    seen = set(seeds)
    queue = sorted(seeds)
    total_edges = 0
    while queue:
        f = queue.pop()
        steps += 1
        anchor_quad = m.quad_at(f.anchor)
        over_budget = len(seen) > params.max_faces
        arc = None if over_budget else \
            attracting_arc_reference(m, f, anchor_quad, params)
        if over_budget or arc.outcome is not ArcOutcome.FINITE:
            w = face_witness(m, f, anchor_quad)
            if w is not None:
                return BqVerdict(Status.NOT_BQ, witness=w, steps_used=steps)
            if over_budget:
                return BqVerdict(Status.UNDECIDED, budget_hit="max_faces",
                                 steps_used=steps)
            if arc.outcome is ArcOutcome.INFINITE:
                return BqVerdict(
                    Status.NOT_BQ,
                    witness=Witness(WitnessKind.INFINITE_ARC, f),
                    steps_used=steps)
            budget = "max_arc_steps" if arc.outcome is ArcOutcome.BUDGET \
                else "overflow"
            return BqVerdict(Status.UNDECIDED, budget_hit=budget,
                             steps_used=steps)
        tree.arc_bounds[f] = (arc.n1, arc.n2)
        total_edges += max(0, arc.n2 - arc.n1 + 1)
        if total_edges > params.max_total_edges:
            return BqVerdict(Status.UNDECIDED, budget_hit="max_total_edges",
                             steps_used=steps)
        for n, quad in enumerate(arc.quads, arc.n1):
            for i, j in FACE_PAIRS:
                if (i, j) != f.colors and values_in_level(
                        quad[i - 1], quad[j - 1], m.boundary.lam(i, j), K,
                        m.boundary.M):
                    g = boundary_face(f, n, i, j)
                    if g not in seen:
                        seen.add(g)
                        queue.append(g)
    return BqVerdict(Status.IN_BQ, tree=tree, steps_used=steps)
