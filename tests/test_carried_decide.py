"""Deciding from carried quads.

``decide_bq`` carries every quad from the root: the descent its vertex
quad, each queued face the quad at its anchor.  It looks no value up by
word, so the map's memo keeps only the root quad.  These tests pin the
verdict records against ``oracles.decide_bq_reference``, which reads
every anchor quad through the memo, and check the two invariants that
let the quads be carried: every seed is anchored at the sink, and every
queued face's quad is the memoized quad at its anchor.
"""

import numpy as np
import pytest

from bqdomain import bq
from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice,
                              solve_fourth)
from bqdomain.bq import BqParams, decide_bq, find_sink
from bqdomain.markoff import MarkoffMap
from bqdomain.tree import faces_at

from conftest import (in_bq_fixtures, not_bq_fixtures,
                      random_on_variety_point, slice_map)
from oracles import decide_bq_reference, face_in_level

SLICE_POINTS = [-2.25 - 2.25j, 3.75 + 3.75j, -0.75 + 0.75j, 0.75 - 0.75j,
                -5.25 + 5.25j]

# Budgets small enough that a few hundred decisions stay fast, and that
# every Undecided kind shows up.
SMALL = BqParams(max_faces=200, max_arc_steps=400, max_total_edges=3000)


def frozen_maps():
    """The 25 frozen points: 10 easy InBQ, 10 root NotBQ, 5 on the slice
    (2 hard InBQ, 3 budget-bound Undecided)."""
    return ([pytest.param(lambda q=q: MarkoffMap(q), id="in_bq%d" % n)
             for n, q in enumerate(in_bq_fixtures())]
            + [pytest.param(lambda q=q: MarkoffMap(q), id="not_bq%d" % n)
               for n, q in enumerate(not_bq_fixtures())]
            + [pytest.param(lambda a=a: slice_map(a), id="slice%d" % n)
               for n, a in enumerate(SLICE_POINTS)])


def same(x, y) -> bool:
    """Bitwise equality: == plus repr, which tells -0.0 from 0.0."""
    return x == y and repr(x) == repr(y)


def record(v):
    """Status, budget, steps, witness, arc bounds in order and sorted
    edges; the witness value by repr, so that it compares bitwise."""
    w = v.witness
    return (v.status, v.budget_hit, v.steps_used,
            w and (w.kind, w.face, repr(w.value)),
            v.tree and list(v.tree.arc_bounds.items()),
            v.tree and sorted(v.tree.edges))


def random_complex(rng, scale):
    return complex(*rng.uniform(-scale, scale, 2))


def moved_point(rng) -> MarkoffQuad:
    """A random on-variety point moved out by a random word of up to six
    letters, so that its descent starts above the sink."""
    pt = random_on_variety_point(rng)
    m = MarkoffMap(MarkoffQuad(pt.quad, pt.omega))
    quad, last = m.root, 0
    for _ in range(int(rng.integers(1, 7))):
        last = int(rng.choice([c for c in (1, 2, 3, 4) if c != last]))
        quad = m._move(quad, last)
    return MarkoffQuad(quad, pt.omega, on_variety=False)


def seeded_quads(seed: int = 2024):
    """100 random and 100 moved on-variety points, 100 points with real
    coordinates, 50 raw quads and 50 quads with entries near or past the
    overflow cap."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(100):
        pt = random_on_variety_point(rng)
        out.append(MarkoffQuad(pt.quad, pt.omega))
        out.append(moved_point(rng))
    for _ in range(100):
        omega = BoundaryData(tuple(rng.uniform(-2, 2, 3)))
        abc = tuple(rng.uniform(-4, 4, 3))
        d = solve_fourth(*abc, omega, RootChoice.PLUS)
        out.append(MarkoffQuad((*abc, d), omega, on_variety=False))
    for _ in range(50):
        omega = BoundaryData(tuple(random_complex(rng, 3.0)
                                   for _ in range(3)))
        raw = tuple(random_complex(rng, 6.0) for _ in range(4))
        huge = tuple(random_complex(rng, 3.0)
                     * (10.0 ** rng.uniform(100, 160) if rng.random() < 0.5
                        else 1.0) for _ in range(4))
        out.append(MarkoffQuad(raw, omega, on_variety=False))
        out.append(MarkoffQuad(huge, omega, on_variety=False))
    return out


@pytest.mark.parametrize("make", frozen_maps())
def test_frozen_point_matches_the_reference_and_keeps_the_memo_at_root(
        make):
    m = make()
    root = m.quad_at("")
    reference = decide_bq_reference(make())
    assert record(decide_bq(m)) == record(reference)
    assert m._quads == {"": root}


def test_seeded_records_match_the_reference():
    statuses, budgets = set(), set()
    quads = seeded_quads()
    assert len(quads) >= 400
    for quad in quads:
        m = MarkoffMap(quad)
        got = record(decide_bq(m, SMALL))
        assert got == record(decide_bq_reference(MarkoffMap(quad), SMALL))
        assert len(m._quads) == 1
        statuses.add(got[0])
        budgets.add(got[1])
    assert len(statuses) == 3
    assert {"max_faces", "overflow"} <= budgets


def test_seeds_are_anchored_at_the_sink():
    rng = np.random.default_rng(99)
    params = BqParams()
    below_root = 0
    for _ in range(300):
        m = MarkoffMap(moved_point(rng))
        d = find_sink(m, params)
        if d.vertex is None:
            continue
        assert same(d.quad, m.quad_at(d.vertex))
        K = params.level(m)
        for f in faces_at(d.vertex):
            if face_in_level(m, f, K):
                assert f.anchor == d.vertex, f
                below_root += len(d.vertex) > 1
    assert below_root > 0


def test_queued_quads_are_the_memoized_anchor_quads(monkeypatch):
    """Every popped face's arc starts from the memo's quad at its
    anchor, bitwise."""
    walk = bq.attracting_arc
    checked = []

    def checking(m, f, quad, params):
        assert same(quad, ref.quad_at(f.anchor)), f
        checked.append(f)
        return walk(m, f, quad, params)
    monkeypatch.setattr(bq, "attracting_arc", checking)
    for a in (-2.25 - 2.25j, 3.75 + 3.75j):
        ref = slice_map(a)
        del checked[:]
        decide_bq(slice_map(a))
        assert len(checked) > 10
        assert max(len(f.anchor) for f in checked) > 3
