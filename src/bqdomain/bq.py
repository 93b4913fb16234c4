"""Tri-state membership test for the Bowditch domain.

The procedure descends to a small-modulus vertex, seeds the set of faces
whose values sit below the level threshold, and closes it up by walking
the attracting arc of each face.  A finite closed-up tree certifies
membership; a face value on the real band [-2,2], a vanishing sigma, or
an arc that cannot terminate certifies non-membership; exhausted budgets
and overflow yield an honest Undecided.

Every value is carried from the map's root quad, one elementary move
per edge, and none is looked up by word.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ._record import Frozen, Record
from .algebra import moved_value
from .markoff import HUGE, OVERFLOW_CAP, MarkoffMap, Quad
from .neighbors import WitnessKind, face_obstruction, h_star
from .tree import (COLORS, EDGE_COLORS, EDGE_LETTERS, FACE_PAIRS, PAIRS_WITH,
                   EdgeKey, FaceKey, Trie, TrieFace, VertexWord,
                   canonical_face)


class BqParams(Frozen):
    __slots__ = _fields = ("K", "max_descent_steps", "max_faces",
                           "max_arc_steps", "max_total_edges")

    def __init__(self, K: Optional[float] = None,   # None -> 2 + M
                 max_descent_steps: int = 200, max_faces: int = 20000,
                 max_arc_steps: int = 2000, max_total_edges: int = 100000):
        # bool is an int; K*K <= max fails for NaN, inf and |K| > 1.34e154.
        if K is not None and (isinstance(K, bool)
                              or not isinstance(K, numbers.Real)
                              or not K * K <= sys.float_info.max):
            raise ValueError("K must be real with K*K finite, got %r" % (K,))
        budgets = max_descent_steps, max_faces, max_arc_steps, max_total_edges
        if any(type(n) is not int or n < 0 for n in budgets):
            raise ValueError("%s must be non-negative integers, got %r"
                             % (", ".join(self._fields[1:]), budgets))
        self._set(K, *budgets)

    def level(self, m: MarkoffMap) -> float:
        k = 2.0 + m.boundary.M if self.K is None else self.K
        if k < 2.0 + m.boundary.M:
            raise ValueError("K must be at least 2 + M")
        return k


class Witness(NamedTuple):
    kind: WitnessKind
    face: FaceKey
    value: Optional[complex] = None


class AttractingTree(Record):
    """An InBQ certificate: the arc bounds (n1, n2) of each closure face,
    in pop order.  ``edges``, the certificate's edge set, is derived on
    each read as the union of ``arc_edges`` over the bounds."""

    __slots__ = _fields = ("arc_bounds",)

    def __init__(self,
                 arc_bounds: Optional[Dict[FaceKey, Tuple[int, int]]] = None):
        self.arc_bounds = {} if arc_bounds is None else arc_bounds

    @property
    def edges(self) -> Set[EdgeKey]:
        edges = set()
        for f, (n1, n2) in self.arc_bounds.items():
            edges.update(arc_edges(f, n1, n2))
        return edges


class Status(Enum):
    IN_BQ = "in_bq"
    NOT_BQ = "not_bq"
    UNDECIDED = "undecided"


class BqVerdict(NamedTuple):
    status: Status
    tree: Optional[AttractingTree] = None
    witness: Optional[Witness] = None
    budget_hit: Optional[str] = None
    steps_used: int = 0


def face_witness(m: MarkoffMap, f: FaceKey, quad: Quad) -> Optional[Witness]:
    """Band or sigma witness at f, if any (``face_obstruction``), from the
    quad at a vertex on f's boundary; a band witness carries the face
    value.  f may be a ``FaceKey`` or the closure's ``TrieFace``: its
    anchor is read, and a ``FaceKey`` built, only for a witness."""
    i, j = f.colors
    psi, kind = face_obstruction(m.boundary, i, j, quad[i - 1], quad[j - 1])
    return None if kind is None else Witness(
        kind, FaceKey(f.anchor, f.colors),
        psi if kind is WitnessKind.BQ1_VIOLATION else None)


def _stop(steps: int, witness: Optional[Witness],
          budget: Optional[str]) -> BqVerdict:
    """NotBQ on a stop's witness, else Undecided on the budget it names."""
    if witness is None:
        return BqVerdict(Status.UNDECIDED, budget_hit=budget, steps_used=steps)
    return BqVerdict(Status.NOT_BQ, witness=witness, steps_used=steps)


# The list defaults here and in ArcResult are shared: never append to one.
class DescentResult(NamedTuple):
    vertex: Optional[VertexWord] = None
    quad: Optional[Quad] = None           # the quad at vertex
    witness: Optional[Witness] = None
    budget_hit: Optional[str] = None
    steps: int = 0
    seeds: List[Tuple[int, int]] = []


# The pairs screened at the first window vertex of a face of pair index t
# (all but its own, ``_FIRST[t]``), and after crossing an edge of colour c
# (``PAIRS_WITH[c]``, at 0-based slot c - 1 of ``_CROSSED``), as getters of
# their entries from a sequence of one entry per pair of FACE_PAIRS.
_FIRST = [itemgetter(*(n for n in range(6) if n != t)) for t in range(6)]
_CROSSED = [itemgetter(*(n for n, q in enumerate(FACE_PAIRS) if c in q))
            for c in COLORS]


def find_sink(m: MarkoffMap, params: BqParams) -> DescentResult:
    """Steepest descent from the root toward small-modulus regions.

    Stops with ``seeds`` at a vertex touching a face below the level
    threshold, or else names its stop: the first face on the way with a
    band or sigma witness (the only face keyed), a vertex with no strictly
    outgoing edge (``budget_hit`` "overflow" if its quad holds HUGE, else
    "no_seed_face"), or "max_descent_steps".
    The quad is carried, one move per child edge tried; the edge back,
    crossed because it made its value strictly smaller, is not outgoing,
    so it is never tried.

    Each vertex is screened in one pass over its pairs, the face value
    psi = a_i a_j - lambda_ij of ``face_obstruction`` serving both the
    witness test and the level test min(|a_i|, |a_j|) < K, |psi| < K^2 + M
    (reference: ``values_in_level`` in tests/oracles.py).  Past the root
    only the three pairs holding the colour c just crossed are screened:
    an edge of colour c leaves both region values of every pair without c
    bitwise unchanged, and those pairs were screened one vertex earlier,
    free of witnesses and out of level, or the descent would have stopped
    there.  So a descent witness is the first one a screen of all six
    pairs finds, and the sink's in-level pairs, returned as ``seeds`` in
    ``FACE_PAIRS`` order (none on a witness stop), are all of them.
    """
    b = m.boundary
    K = params.level(m)
    KKM = K * K + b.M
    v: VertexWord = ""
    quad = m.root
    back = 0                       # the colour of the edge back; 0 at root
    screen = FACE_PAIRS
    for step in range(params.max_descent_steps + 1):
        seeds = []
        for p in screen:
            i, j = p
            ai, aj = quad[i - 1], quad[j - 1]
            psi, kind = face_obstruction(b, i, j, ai, aj)
            if kind is not None:        # by face_witness's rule
                w = Witness(kind, canonical_face(v, i, j),
                            psi if kind is WitnessKind.BQ1_VIOLATION else None)
                return DescentResult(vertex=v, quad=quad, witness=w,
                                     steps=step)
            if (abs(ai) < K or abs(aj) < K) and abs(psi) < KKM:
                seeds.append(p)
        if seeds:
            return DescentResult(vertex=v, quad=quad, steps=step,
                                 seeds=seeds)
        down = []
        for c in COLORS:
            if c != back:
                far = m._move(quad, c)
                far_mod = abs(far[c - 1])
                if far_mod < abs(quad[c - 1]):
                    down.append((far_mod, c, far))
        if not down:
            stop = "overflow" if HUGE in quad else "no_seed_face"
            return DescentResult(vertex=v, quad=quad, budget_hit=stop,
                                 steps=step)
        _, back, quad = min(down)      # steepest; ties to the smaller colour
        v += str(back)
        screen = PAIRS_WITH[back]
    return DescentResult(budget_hit="max_descent_steps",
                         steps=params.max_descent_steps)


class ArcOutcome(Enum):
    """How an arc walk ends; an Undecided outcome's value names the stop."""
    FINITE = "finite"
    INFINITE = "infinite"
    BUDGET = "max_arc_steps"
    OVERFLOW = "overflow"     # h_star raised, or a ray saturated


class ArcResult(NamedTuple):
    outcome: ArcOutcome
    n1: int = 0
    n2: int = -1          # empty arc when n2 < n1
    steps: int = 0
    # Vertex quads at positions n1..n2+1 of a finite arc, in order.
    quads: List[Quad] = []


def attracting_arc(m: MarkoffMap, f: FaceKey, quad: Quad, K: float,
                   max_steps: int) -> ArcResult:
    """Bound the window of boundary edges whose side regions dip below
    the face's threshold ``h_star`` at level K, walking at most
    max_steps steps over both rays; ``decide_bq`` passes the K it
    resolved once and ``BqParams.max_arc_steps``.  Only f's colors are
    read, so f may be a ``FaceKey`` or the closure's ``TrieFace``.

    Walks both rays by position from quad, the quad at f's anchor,
    carrying it one elementary move per step.  With (k, l) =
    EDGE_COLORS[f.colors], the positive ray's letters run k, l, k, ...
    and the negative ray's l, k, l, ...  Edge t of a ray (t = 0, 1, ...;
    boundary edge t or -t-1) has the ray's t-th letter as its color, and
    its side region has the other edge color, read from the quad t steps
    out along the ray.  A ray may stop once, for both side colors, the latest value
    exceeds the threshold and exceeds its predecessor of the same color
    (beyond that point the sequences are strictly monotone).  A finite
    result carries the quads of the window's vertices.

    Each step is one ``moved_value``, on the ``move_terms`` row of the
    new side color: the ray alternates between two rows, held in locals
    that trade places with the colors.  It is capped as ``markoff._cap``
    caps it but on the modulus the walk reads anyway, so each moved
    value's modulus is taken once; the values are those of
    ``MarkoffMap._move`` (operand order matters: see ``moved_value``).
    Overflow ends the walk with OVERFLOW: an ``h_star`` that raises an
    ArithmeticError, as on a HUGE anchor quad, leaves no threshold, and a
    ray with two HUGE values in a row of one side color never escapes,
    because every later move reads a HUGE and is capped to HUGE again.
    """
    try:
        h = h_star(m.boundary, f, quad, K)
    except ArithmeticError:
        return ArcResult(ArcOutcome.OVERFLOW)
    if math.isinf(h):
        return ArcResult(ArcOutcome.INFINITE)
    terms = m.boundary.move_terms
    k, l = EDGE_COLORS[f.colors]
    steps, rays = 0, []
    for side, other in ((l, k), (k, l)):
        # Quads at ray positions 0, 1, ..., the leading edges that reach
        # the window, and the latest quad as a list.  side is edge t's side
        # color, with its move row, latest modulus u and escape flag; the
        # _o triple is the other color's (NaN: no value yet).  Step t reads
        # u; unless the ray stops there, the colors trade places and the
        # move of the new side color gives the quad at position t + 1.
        row, row_o = terms[side], terms[other]
        quads, cur, window = [quad], list(quad), 0
        prev = prev_o = math.nan
        escaped = escaped_o = False
        u = abs(quad[side - 1])
        while True:
            if steps >= max_steps:
                return ArcResult(ArcOutcome.BUDGET, steps=steps)
            steps += 1
            if u < h:
                window = len(quads)
                escaped = escaped_o = False
            elif u == prev == math.inf:
                return ArcResult(ArcOutcome.OVERFLOW, steps=steps)
            else:
                escaped = u > prev
                if escaped and escaped_o:
                    break
            side, other = other, side
            row, row_o = row_o, row
            prev, prev_o = prev_o, u
            escaped, escaped_o = escaped_o, escaped
            v = moved_value(cur, side, row)
            try:
                u = abs(v)
            except OverflowError:
                u = math.inf
            if not u <= OVERFLOW_CAP:           # _cap, on the modulus
                v, u = HUGE, math.inf
            cur[side - 1] = v
            quads.append(tuple(cur))
        rays.append((quads, window))
    (pos_quads, hi), (neg_quads, lo) = rays
    # Built by the tuple.__new__ that ArcResult(...) would call.
    return tuple.__new__(ArcResult, (ArcOutcome.FINITE, -lo, hi - 1, steps,
                                     neg_quads[lo:0:-1] + pos_quads[:hi + 1]))


def arc_edges(f: FaceKey, n1: int, n2: int) -> List[EdgeKey]:
    """Boundary edges n = n1, ..., n2 of f, in that order; edge n joins
    positions n and n + 1.  Edge n < 0 is named by the anchor plus the
    first -n letters of the negative ray's string l, k, l, ..., and edge
    n >= 0 by the anchor plus the first n + 1 of the positive ray's.
    The words are prefixes of the two rays' words, and each key is made
    by ``tuple.__new__``, which is what ``EdgeKey(word)`` calls."""
    a, kl = f.anchor, EDGE_LETTERS[f.colors]
    m = len(a)
    neg = a + kl[::-1] * ((1 - n1) // 2)
    pos = a + kl * ((n2 + 2) // 2)
    words = [neg[:m - n] for n in range(n1, min(0, n2 + 1))] + \
        [pos[:m + n + 1] for n in range(max(0, n1), n2 + 1)]
    return list(map(tuple.__new__, repeat(EdgeKey), zip(words)))


def decide_bq(m: MarkoffMap, params: BqParams = BqParams()) -> BqVerdict:
    """Decide membership with a certificate or witness.

    InBQ carries the closed-up attracting tree; NotBQ carries a face
    witness; Undecided names a budget, or "overflow".  Each phase names
    its own stops and ``_stop`` makes each one the verdict: ``find_sink``
    in its result, the arc walk by its ``ArcOutcome`` (an INFINITE arc is
    a witness), the closure at "max_faces" and "max_total_edges".  Each
    popped face runs the band and sigma test once: in ``h_star`` when its
    arc is finite, else through ``face_witness`` as the closure stops.

    A closure face is its anchor's node in a ``tree.Trie`` and its color
    pair's index in ``FACE_PAIRS``.  It is seen when that index's bit is
    set in the node's byte of ``seen``, the closure's own ``bytearray`` of
    one byte a node, grown with zero bytes once per batch of interned
    hits.  A face is queued once, when seen, so the faces seen for
    "max_faces" are those popped and those queued.  The queue is
    three stacks, popped together: the nodes in an ``array("i")``, the
    pair indices in a ``bytearray`` and the anchor quads' values in a
    list, four a face.  The arc log is an ``array("i")`` holding a popped
    face as node, pair index, n1, n2.  So a queued face costs one bit,
    4 + 1 bytes and four list slots, plus 20 bytes of trie and one byte
    of ``seen`` when its node is new; no window quad tuple outlives the
    pop that walked it, as the pop rebuilds its own.  Only a face that
    pops becomes a ``tree.TrieFace``, to be handed to ``attracting_arc``;
    its string anchor is the node's word, built by ``Trie.word`` only
    when read.  Keys are built from those words only for the verdict
    returned: the witness face, or the arc bounds, in pop order so that
    each anchor read walks only the letters past its source's; a stop
    with no witness names no face.  The bounds are the whole
    certificate: its edges are built only when ``AttractingTree.edges``
    is read.  The level K is resolved once here (``find_sink`` resolves
    its own) and every pop hands it to ``attracting_arc`` with the
    ``max_arc_steps`` budget.

    The window screen rests on one invariant: after a face's screen,
    every in-level face at every vertex of its window is in ``seen``.  At
    the first vertex the screen tests every pair but the face's own; past
    it, a pair without the color just crossed names the previous vertex's
    face.  The seeds are all the in-level faces at the sink (one anchored
    higher is in level at a vertex the descent passed, and it would have
    stopped there), and a queued face is anchored on its source's window
    and pops after that window's screen.  So a face that f's window meets
    at or above f's anchor is already seen: the screen skips f's anchor
    and drops hits anchored there.  A hit at n > 0 holds the color just
    crossed and is anchored at its vertex; one at n < 0 is anchored one
    step in when its pair lacks the vertex's last letter.
    """
    K = params.level(m)
    v0, q0, witness, budget, steps, seeds = find_sink(m, params)
    if not seeds:
        return _stop(steps, witness, budget)
    trie = Trie()
    sink = trie.node(v0)
    # A screen entry is (i - 1, j - 1, lambda_ij, n), one per face pair
    # (i, j), with its colors as 0-based slots and n its index in
    # FACE_PAIRS; the face of pair n at node y is seen when bit n of
    # seen[y] is set.
    lam = m.boundary.lam_rows
    pairs = [(i - 1, j - 1, lam[i, j][0], n)
             for n, (i, j) in enumerate(FACE_PAIRS)]
    crossed = [get(pairs) for get in _CROSSED]
    KKM = K * K + m.boundary.M
    max_faces, max_total_edges = params.max_faces, params.max_total_edges
    max_arc_steps, d = params.max_arc_steps, steps     # d: descent steps
    seen, n = bytearray(len(trie.parent)), len(seeds)
    # A face is queued as its node, its pair index and the four values of
    # its anchor quad: one, one and four items on the stacks.  The seeds go
    # in FACE_PAIRS order, so the last one pops first.
    queued_pairs = bytearray(map(FACE_PAIRS.index, seeds))
    queued_nodes, queued_quads = array("i", [sink] * n), list(q0) * n
    seen[sink] = sum(1 << t for t in queued_pairs)
    arcs = array("i")              # node, pair index, n1, n2; in pop order
    total_edges = 0
    while queued_nodes:
        x, t = queued_nodes.pop(), queued_pairs.pop()
        anchor_quad = tuple(queued_quads[-4:])
        del queued_quads[-4:]
        p = FACE_PAIRS[t]
        f = TrieFace(trie, x, p)
        steps += 1
        if steps + len(queued_nodes) > max_faces + d:
            return _stop(steps, face_witness(m, f, anchor_quad), "max_faces")
        # A band or sigma face's walk ends at once, INFINITE or (on a HUGE
        # anchor quad) OVERFLOW, so a face with a finite arc needs no witness.
        arc = attracting_arc(m, f, anchor_quad, K, max_arc_steps)
        if arc.outcome is not ArcOutcome.FINITE:
            w = face_witness(m, f, anchor_quad)
            if w is None and arc.outcome is ArcOutcome.INFINITE:
                w = Witness(WitnessKind.INFINITE_ARC, FaceKey(f.anchor, p))
            return _stop(steps, w, arc.outcome.value)
        _, n1, n2, _, quads = arc      # locals: a NamedTuple read is slower
        arcs.fromlist([x, t, n1, n2])
        total_edges += n2 - n1 + 1
        if total_edges > max_total_edges:
            return _stop(steps, None, "max_total_edges")
        # Screen each window vertex but f's anchor on the carried quad and
        # moduli.  An edge of color c keeps every face whose pair lacks c,
        # with both region values bitwise unchanged, so only c's modulus
        # changes.  The level test, min(|a_i|, |a_j|) < K and
        # |a_i a_j - lambda_ij| < K*K + M (reference: values_in_level in
        # tests/oracles.py), takes K*K + M once; a face value past the cap is
        # HUGE, never in level, even below K*K + M.  A hit is (its anchor's
        # position, its pair's index).  Colors are 0-based slots here.
        k, l = EDGE_COLORS[p]
        kl = k - 1, l - 1
        screen = _FIRST[t](pairs)
        mods, c = list(map(abs, quads[0])), k - 1
        hits = []
        for n, quad in zip(range(n1, n2 + 2), quads):
            mods[c] = abs(quad[c])
            c = kl[n & 1]         # edge n's color; n's last letter at n < 0
            if not n:
                screen = crossed[c]
                continue
            for i, j, lam_ij, t in screen:
                if not (mods[i] < K or mods[j] < K):
                    continue
                try:
                    v = abs(quad[i] * quad[j] - lam_ij)
                except OverflowError:           # HUGE under _cap
                    continue
                if v < KKM and v <= OVERFLOW_CAP:
                    if n > 0 or c == i or c == j:
                        hits.append((n, t))
                    elif n < -1:
                        hits.append((n + 1, t))
            screen = crossed[c]
        if not hits:
            continue
        # Name the hits: intern each ray only out to its outermost anchor.
        lo, hi = min(0, min(hits)[0]), max(0, hits[-1][0])
        nodes = trie.ray(x, l, k, -lo)[:0:-1] + trie.ray(x, k, l, hi)
        seen += bytes(len(trie.parent) - len(seen))
        for s, t in hits:
            y, bit = nodes[s - lo], 1 << t
            if not seen[y] & bit:
                seen[y] |= bit
                queued_nodes.append(y)
                queued_pairs.append(t)
                queued_quads.extend(quads[s - n1])
    # Keys are built once, for the certificate that is returned, by the
    # tuple.__new__ that FaceKey(...) would call.
    log = iter(arcs)
    bounds = {tuple.__new__(FaceKey, (trie.word(x), FACE_PAIRS[t])): (n1, n2)
              for x, t, n1, n2 in zip(log, log, log, log)}
    return BqVerdict(Status.IN_BQ, tree=AttractingTree(bounds),
                     steps_used=steps)
