"""Symmetries of the verdict, checked verdict by verdict.

Complex conjugation commutes with the mapping class group action, and
every operation ``decide_bq`` applies commutes with it bitwise, so at
the conjugate of a point with real b, c and boundary traces it returns
the same record, with the conjugate witness value.  On the render slice
a -> -a also keeps every pixel's colour.  A sign change keeps every
modulus, so it keeps the record too, with the witness value up to sign;
re-rooting by theta_A..theta_D moves the point along its own orbit, so
it never turns a decided InBQ into NotBQ or back, and it maps an InBQ
certificate's faces onto the re-rooted certificate's faces.
"""

from collections import Counter

import numpy as np
import pytest

from bqdomain.algebra import (BoundaryData, CharacterPoint, MarkoffQuad,
                              RootChoice, Theta, involution_theta,
                              solve_fourth)
from bqdomain.bq import BqParams, Status, decide_bq
from bqdomain.markoff import MarkoffMap
from bqdomain.render import (SliceConfig, classify_pixel, pixel_rgb,
                             pixel_value)
from bqdomain.tree import canonical_face

from conftest import SLICE_DOC, population, slice_map
from test_budget_monotonicity import real_slice_maps
from test_carried_decide import SMALL, record

P64 = BqParams(max_faces=64)
SLICE = SliceConfig.from_json(dict(SLICE_DOC, budgets={"max_faces": 64}))


def real_maps(seed: int = 7, n: int = 60):
    """n makers of maps at complex a with real b, c and omega, d solved
    at a by either root: each takes a, so it can be made at a and at its
    conjugate."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = complex(*rng.uniform(-4, 4, 2))
        b, c = (float(v) for v in rng.uniform(-4, 4, 2))
        omega = BoundaryData(tuple(float(v) for v in rng.uniform(-2, 2, 3)))
        which = RootChoice.PLUS if rng.integers(2) else RootChoice.MINUS

        def make(a, b=b, c=c, omega=omega, which=which):
            d = solve_fourth(a, b, c, omega, which)
            return MarkoffMap(MarkoffQuad((a, b, c, d), omega,
                                          on_variety=False))
        out.append((a, make))
    return out


def conjugate_record(v):
    """record(v) with the witness value conjugated."""
    got = list(record(v))
    if v.witness is not None and v.witness.value is not None:
        w = v.witness
        got[3] = (w.kind, w.face, repr(w.value.conjugate()))
    return tuple(got)


def test_decide_bq_commutes_with_conjugation():
    w, h = SLICE.px
    points = [(a, slice_map) for a in (pixel_value(SLICE, col, row)
                                       for row in range(h)
                                       for col in range(w))]
    points += real_maps()
    kinds = set()
    for a, make in points:
        v = decide_bq(make(a), P64)
        assert record(decide_bq(make(a.conjugate()), P64)) \
            == conjugate_record(v), a
        kinds.add((v.status, v.witness and v.witness.kind))
    assert len(kinds) >= 3


def test_slice_tags_are_symmetric_under_negating_a():
    w, h = SLICE.px
    colours = {(col, row): pixel_rgb(classify_pixel(SLICE, col, row)[0])
               for row in range(h) for col in range(w)}
    assert len(set(colours.values())) > 1
    assert all(rgb == colours[w - 1 - col, h - 1 - row]
               for (col, row), rgb in colours.items())


# The colour pair of each boundary trace's lambda pair: {1,2}~{3,4} is x,
# {2,3}~{1,4} is y, {1,3}~{2,4} is z.
TRACE_PAIRS = ({1, 2}, {2, 3}, {1, 3})
P500 = BqParams(max_faces=500)


def sign_changed(q: MarkoffQuad, P) -> MarkoffMap:
    """The map at q with a_c negated for each colour c in P, and each
    boundary trace negated whose lambda pair holds exactly one colour of
    P; for P = {1, 2}, (a,b,c,d,x,y,z) -> (-a,-b,c,d,x,-y,-z)."""
    values = tuple(-v if c in P else v for c, v in enumerate(q.values, 1))
    omega = tuple(-t if len(P & pair) == 1 else t
                  for t, pair in zip(q.boundary.omega, TRACE_PAIRS))
    return MarkoffMap(MarkoffQuad(values, BoundaryData(omega),
                                  on_variety=False))


def signless_record(v):
    """record(v) without the witness value, and that value."""
    got = list(record(v))
    if v.witness is not None:
        got[3] = got[3][:2]
    return got, v.witness and v.witness.value


def sign_mismatches(quads, P, params: BqParams):
    """The statuses at the quads, and the quads whose record differs from
    the one at their sign change by P, the witness value to within sign;
    values compare by ==, as a negated zero prints as -0."""
    statuses, bad = set(), []
    for q in quads:
        v, u = decide_bq(MarkoffMap(q), params), \
            decide_bq(sign_changed(q, P), params)
        statuses.add(v.status)
        (rv, x), (ru, y) = signless_record(v), signless_record(u)
        # Equal records have one witness kind, so x and y are both None
        # or both values.
        if rv != ru or not (y == x or y == -x):
            bad.append(q)
    return statuses, bad


@pytest.mark.parametrize("P", [{1, 2}, {1, 3}, {1, 4}],
                         ids=["12", "13", "14"])
def test_sign_changes_keep_the_population_records(P):
    statuses, bad = sign_mismatches(population()[:100], P, SMALL)
    assert bad == []
    assert {Status.IN_BQ, Status.UNDECIDED} <= statuses


def test_sign_change_keeps_the_real_slice_records():
    quads = [make().root_quad for make in real_slice_maps()]
    statuses, bad = sign_mismatches(quads, {1, 3}, P500)
    assert bad == []
    assert statuses == set(Status)


def test_rerooting_never_flips_a_decided_status():
    quads = [*population()[:100],
             *(make().root_quad for make in real_slice_maps()[::4])]
    pairs = Counter()          # (status at q, status at its image)
    for q in quads:
        v = decide_bq(MarkoffMap(q), P500)
        if v.status is Status.UNDECIDED:          # nothing to flip
            continue
        pt = CharacterPoint(*q.values, *q.boundary.omega)
        for theta in (Theta.A, Theta.B, Theta.C, Theta.D):
            moved = involution_theta(pt, theta)
            u = decide_bq(MarkoffMap(MarkoffQuad(moved.quad, moved.omega,
                                                 on_variety=False)), P500)
            pairs[v.status, u.status] += 1
    assert pairs[Status.IN_BQ, Status.NOT_BQ] == 0
    assert pairs[Status.NOT_BQ, Status.IN_BQ] == 0
    assert pairs[Status.IN_BQ, Status.IN_BQ] >= 300
    assert pairs[Status.NOT_BQ, Status.NOT_BQ] >= 300


def reduce(word: str) -> str:
    """word with equal adjacent letters cancelled: each letter of the
    tree's words is an involution."""
    out = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return "".join(out)


def test_rerooting_maps_in_bq_faces_onto_faces():
    """The in-level faces depend only on the point, so theta_c carries
    the face (w, p) of an InBQ certificate to canonical_face(c.w, p) of
    the re-rooted one.  Edge sets depend on the anchoring (ROADMAP item
    16), so only the faces are compared."""
    cases = 0
    for q in population()[:100]:
        v = decide_bq(MarkoffMap(q), P500)
        if v.status is not Status.IN_BQ:
            continue
        pt = CharacterPoint(*q.values, *q.boundary.omega)
        for letter, theta in zip("1234", (Theta.A, Theta.B, Theta.C,
                                          Theta.D)):
            moved = involution_theta(pt, theta)
            u = decide_bq(MarkoffMap(MarkoffQuad(moved.quad, moved.omega,
                                                 on_variety=False)), P500)
            assert u.status is Status.IN_BQ
            assert set(u.tree.arc_bounds) == {
                canonical_face(reduce(letter + f.anchor), *f.colors)
                for f in v.tree.arc_bounds}
            cases += 1
    assert cases >= 160
