"""Tri-state membership test for the Bowditch domain.

The procedure descends to a small-modulus vertex, seeds the set of faces
whose values sit below the level threshold, and closes it up by walking
the attracting arc of each face.  A finite closed-up tree certifies
membership; a face value on the real band [-2,2], a vanishing sigma, or
an arc that cannot terminate certifies non-membership; exhausted budgets
and values saturated past the overflow cap yield an honest Undecided.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .markoff import HUGE, MarkoffMap, Quad, Value, face_value_capped, modulus
from .neighbors import WitnessKind, face_obstruction, h_star
from .tree import (COLORS, FACE_PAIRS, EdgeKey, FaceKey, VertexWord,
                   boundary_face, face_edge_at, faces_at)


@dataclass(frozen=True)
class BqParams:
    K: Optional[float] = None          # None -> 2 + M
    max_descent_steps: int = 200
    max_faces: int = 20000
    max_arc_steps: int = 2000
    max_total_edges: int = 100000

    def __post_init__(self):
        # abs(K) < inf is false for NaN and the infinities; bool is an int.
        K = self.K
        if K is not None and (isinstance(K, bool)
                              or not isinstance(K, numbers.Real)
                              or not abs(K) < math.inf):
            raise ValueError("K must be a finite real number, got %r" % (K,))

    def level(self, m: MarkoffMap) -> float:
        k = 2.0 + m.boundary.M if self.K is None else self.K
        if k < 2.0 + m.boundary.M:
            raise ValueError("K must be at least 2 + M")
        return k


@dataclass(frozen=True)
class Witness:
    kind: WitnessKind
    face: FaceKey
    value: Optional[complex] = None


@dataclass
class AttractingTree:
    edges: Set[EdgeKey] = field(default_factory=set)
    arc_bounds: Dict[FaceKey, Tuple[int, int]] = field(default_factory=dict)


class Status(Enum):
    IN_BQ = "in_bq"
    NOT_BQ = "not_bq"
    UNDECIDED = "undecided"


@dataclass
class BqVerdict:
    status: Status
    tree: Optional[AttractingTree] = None
    witness: Optional[Witness] = None
    budget_hit: Optional[str] = None
    steps_used: int = 0


def face_in_level(m: MarkoffMap, f: FaceKey, K: float) -> bool:
    """|psi(face)| < K^2 + M and at least one bounding region below K."""
    ai, aj = m.region_values_at(f)
    return values_in_level(ai, aj, m.boundary.lam(*f.colors), K, m.boundary.M)


def values_in_level(ai: Value, aj: Value, lam_ij: complex, K: float,
                    M: float) -> bool:
    """The level test on a face's two region values and lambda_ij, for
    callers that carry quads instead of keys."""
    if min(modulus(ai), modulus(aj)) >= K:
        return False
    return modulus(face_value_capped(ai, aj, lam_ij)) < K * K + M


def face_witness(m: MarkoffMap, f: FaceKey,
                 params: BqParams) -> Optional[Witness]:
    """Band or sigma witness at f, if any (``face_obstruction``); a band
    witness carries the face value."""
    i, j = f.colors
    psi, kind = face_obstruction(m.boundary, i, j, *m.region_values_at(f))
    if kind is None:
        return None
    return Witness(kind, f, psi if kind is WitnessKind.BQ1_VIOLATION
                   else None)


@dataclass
class DescentResult:
    vertex: Optional[VertexWord] = None
    witness: Optional[Witness] = None
    budget_hit: Optional[str] = None
    steps: int = 0
    trace: List[VertexWord] = field(default_factory=list)


def find_sink(m: MarkoffMap, params: BqParams) -> DescentResult:
    """Steepest descent from the root toward small-modulus regions.

    Stops at a vertex with no strictly outgoing edge, or at one already
    touching a face below the level threshold; every face seen on the
    way is screened for band and sigma witnesses.
    """
    K = params.level(m)
    v: VertexWord = ""
    trace = [v]
    for step in range(params.max_descent_steps + 1):
        faces = faces_at(v)
        for f in faces:
            w = face_witness(m, f, params)
            if w is not None:
                return DescentResult(witness=w, steps=step, trace=trace)
        if any(face_in_level(m, f, K) for f in faces):
            return DescentResult(vertex=v, steps=step, trace=trace)
        quad = m.quad_at(v)
        best: Optional[Tuple[float, VertexWord]] = None
        for c in COLORS:
            far = v[:-1] if v and v[-1] == str(c) else v + str(c)
            far_mod = modulus(m.quad_at(far)[c - 1])
            if far_mod < modulus(quad[c - 1]):
                if best is None or far_mod < best[0]:
                    best = (far_mod, far)
        if best is None:
            return DescentResult(vertex=v, steps=step, trace=trace)
        v = best[1]
        trace.append(v)
    return DescentResult(budget_hit="max_descent_steps",
                         steps=params.max_descent_steps, trace=trace)


class ArcOutcome(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    BUDGET = "budget"
    OVERFLOW = "overflow"     # a value on the walk saturated to HUGE


@dataclass
class ArcResult:
    outcome: ArcOutcome
    n1: int = 0
    n2: int = -1          # empty arc when n2 < n1
    steps: int = 0
    # Vertex quads at positions n1..n2+1 of a finite arc, in order.
    quads: List[Quad] = field(default_factory=list, repr=False,
                              compare=False)


def attracting_arc(m: MarkoffMap, f: FaceKey, params: BqParams) -> ArcResult:
    """Bound the window of boundary edges whose side regions dip below
    the face's threshold.

    Walks both rays from the anchor by position, carrying the vertex
    quad one elementary move per step (no words are built and nothing
    is memoized).  With (k, l) = f.edge_colors, the positive ray's
    letters run k, l, k, ... and the negative ray's l, k, l, ...  Edge t
    of a ray (t = 0, 1, ...; boundary edge t or -t-1) has the ray's t-th
    letter as its color, and its side region has the other edge color,
    read from the quad t steps out along the ray.  A ray may stop once,
    for both side colors, the latest value exceeds the threshold and
    exceeds its predecessor of the same color (beyond that point the
    sequences are strictly monotone).  A finite result carries the quads
    of the window's vertices.

    Saturated values end the walk with OVERFLOW: a HUGE in the anchor
    quad leaves no threshold, and a ray whose latest two values of one
    side color are both HUGE can never pass the strict escape test,
    because every later move is HUGE as well.
    """
    K = params.level(m)
    anchor_quad = m.quad_at(f.anchor)
    if HUGE in anchor_quad:
        return ArcResult(ArcOutcome.OVERFLOW)
    h = h_star(m, f, K)
    if math.isinf(h):
        return ArcResult(ArcOutcome.INFINITE)
    k, l = f.edge_colors
    steps = 0
    rays = []
    for letters in ((k, l), (l, k)):
        # Quads at ray positions 0, 1, ..., and the number of leading
        # edges that reach the window.
        quads = [anchor_quad]
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
                quads.append(m._move(quads[-1], letters[1 - p]))
            u = modulus(quads[t][letters[1 - p] - 1])
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


def decide_bq(m: MarkoffMap, params: BqParams = BqParams()) -> BqVerdict:
    """Decide membership with a certificate or witness.

    InBQ carries the closed-up attracting tree; NotBQ carries a face
    witness; Undecided reports which budget ran out, or "overflow" when
    a value the arc walk needs saturated to HUGE.  Each popped face runs
    the band and sigma test once: in ``h_star`` when its arc is finite,
    and through ``face_witness`` when the closure stops at it.
    """
    K = params.level(m)
    descent = find_sink(m, params)
    steps = descent.steps
    if descent.witness is not None:
        return BqVerdict(Status.NOT_BQ, witness=descent.witness,
                         steps_used=steps)
    if descent.budget_hit is not None:
        return BqVerdict(Status.UNDECIDED, budget_hit=descent.budget_hit,
                         steps_used=steps)

    v0 = descent.vertex
    seeds = [f for f in faces_at(v0) if face_in_level(m, f, K)]
    if not seeds:
        return BqVerdict(Status.UNDECIDED, budget_hit="no_seed_face",
                         steps_used=steps)

    M = m.boundary.M
    pairs = [(i, j, m.boundary.lam(i, j)) for i, j in FACE_PAIRS]
    # The pairs screened at a face's first window vertex (all but its
    # own), and after crossing an edge of color c (the pairs holding c).
    first = {p: [t for t in pairs if t[:2] != p] for p in FACE_PAIRS}
    crossed = {c: [t for t in pairs if c in t[:2]] for c in COLORS}
    tree = AttractingTree()
    seen: Set[FaceKey] = set(seeds)
    queue: List[FaceKey] = sorted(seeds)
    total_edges = 0
    while queue:
        f = queue.pop()
        steps += 1
        # A band or sigma face has an infinite H*, so its walk ends at
        # once, with INFINITE (or OVERFLOW when its anchor quad holds
        # HUGE): a face whose arc is finite needs no witness test.
        over_budget = len(seen) > params.max_faces
        arc = None if over_budget else attracting_arc(m, f, params)
        if over_budget or arc.outcome is not ArcOutcome.FINITE:
            w = face_witness(m, f, params)
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
        # Screen the faces at each window vertex on the carried quad.  An
        # edge of color c keeps every face whose pair lacks c, with both
        # region values bitwise unchanged, so past the first vertex only
        # the three pairs holding the crossed color can be new.  A face
        # that passes is keyed from its position on f's boundary.
        k, l = f.edge_colors
        screen = first[f.colors]
        for n, quad in enumerate(arc.quads, arc.n1):
            for i, j, lam_ij in screen:
                if values_in_level(quad[i - 1], quad[j - 1], lam_ij, K, M):
                    g = boundary_face(f, n, i, j)
                    if g not in seen:
                        seen.add(g)
                        queue.append(g)
            screen = crossed[(k, l)[n & 1]]    # edge n joins n and n+1
    # Edge keys are built once, for the certificate that is returned.
    tree.edges = {face_edge_at(f, n) for f, (n1, n2) in tree.arc_bounds.items()
                  for n in range(n1, n2 + 1)}
    return BqVerdict(Status.IN_BQ, tree=tree, steps_used=steps)
