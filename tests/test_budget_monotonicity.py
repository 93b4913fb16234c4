"""A verdict reached within its budgets keeps its record under larger
ones.

The closure's order reads no budget, and each budget only cuts a
decision short, so a verdict with no ``budget_hit`` (every InBQ, and
every NotBQ) must come out bitwise the same at ten times each budget:
status, steps, witness, arc bounds in pop order and edges.  A larger
budget may turn an Undecided verdict into a decided one, never one
decided verdict into another.  The real slice is the one input where
NotBQ is the common verdict.
"""

from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice,
                              solve_fourth)
from bqdomain.bq import BqParams, Status, decide_bq
from bqdomain.markoff import MarkoffMap

from oracles import KeyedMap
from test_carried_decide import SMALL, frozen_maps, record, seeded_quads


def tenfold(params: BqParams) -> BqParams:
    return BqParams(params.K, *(10 * getattr(params, name)
                                for name in BqParams._fields[1:]))


def decided_records_hold(makes, params: BqParams):
    """The number of verdicts of each status; each decided one checked
    against its tenfold-budget record."""
    big, counts = tenfold(params), {s: 0 for s in Status}
    for make in makes:
        v = decide_bq(make(), params)
        counts[v.status] += 1
        if v.budget_hit is None:
            assert record(decide_bq(make(), big)) == record(v), make()
    return counts


def test_frozen_points_keep_their_records_at_tenfold_budgets():
    counts = decided_records_hold([p.values[0] for p in frozen_maps()],
                                  BqParams())
    assert counts == {Status.IN_BQ: 12, Status.NOT_BQ: 10,
                      Status.UNDECIDED: 3}


def test_seeded_points_keep_their_records_at_tenfold_budgets():
    counts = decided_records_hold(
        [lambda q=q: KeyedMap(q) for q in seeded_quads()], SMALL)
    assert counts == {Status.IN_BQ: 200, Status.NOT_BQ: 90,
                      Status.UNDECIDED: 110}


def real_slice_maps():
    """The real slice: the 24x24 pixel centres (a, b) over [-6, 6]^2 with
    c = 2.5, omega = (1, 0.5, -0.5) and d the MINUS root, row by row."""
    omega = BoundaryData((1.0, 0.5, -0.5))
    makes = []
    for row in range(24):
        for col in range(24):
            a, b = -6 + (2 * col + 1) / 4, 6 - (2 * row + 1) / 4
            d = solve_fourth(a, b, 2.5, omega, RootChoice.MINUS)
            quad = MarkoffQuad((a, b, 2.5, d), omega, on_variety=False)
            makes.append(lambda q=quad: MarkoffMap(q))
    return makes


def test_real_slice_keeps_its_records_at_tenfold_budgets():
    counts = decided_records_hold(real_slice_maps(), BqParams(max_faces=500))
    assert counts == {Status.IN_BQ: 143, Status.NOT_BQ: 395,
                      Status.UNDECIDED: 38}
