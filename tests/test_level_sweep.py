"""The verdict does not depend on the level K.

For every K >= 2 + M the in-level face set is finite exactly when the
point is in BQ (Bowditch; Tan-Wong-Zhang), so a decided status must not
change with K, and the InBQ face set at a larger K must contain the one
at a smaller K.  A closure or window screen that misses an in-level face
shows as a face set that is not nested.  Each input is decided at the
default K = 2 + M and at K = c (2 + M); wherever both verdicts are
decided, the statuses are compared and, for InBQ, the certificates'
face sets.  The witness may differ.  The 3 deep frozen points are
Undecided at every K, so they carry no status and are left out.
"""

import pytest

from bqdomain import cli
from bqdomain.bq import BqParams, Status, decide_bq

from conftest import population
from oracles import KeyedMap
from test_budget_monotonicity import real_slice_maps
from test_carried_decide import SMALL, frozen_maps, seeded_quads


def at_level(params: BqParams, K: float) -> BqParams:
    return BqParams(K, *(getattr(params, name)
                         for name in BqParams._fields[1:]))


def decided_pairs(makes, params: BqParams, levels):
    """For each c in levels, the number of InBQ and NotBQ inputs decided
    at both K = 2 + M and K = c (2 + M); each such pair has one status,
    and an InBQ one nested face sets."""
    counts = {c: [0, 0] for c in levels}
    for make in makes:
        low = decide_bq(make(), params)
        for c in levels:
            m = make()
            high = decide_bq(m, at_level(params, c * (2 + m.boundary.M)))
            if low.budget_hit is None and high.budget_hit is None:
                assert high.status is low.status, (c, m.root)
                counts[c][low.status is Status.NOT_BQ] += 1
                if low.status is Status.IN_BQ:
                    assert low.tree.arc_bounds.keys() \
                        <= high.tree.arc_bounds.keys(), (c, m.root)
    return counts


def test_real_slice_is_level_invariant():
    assert decided_pairs(real_slice_maps(), BqParams(max_faces=500),
                         (2, 3)) == {2: [143, 354], 3: [143, 336]}


def test_seeded_points_are_level_invariant():
    assert decided_pairs([lambda q=q: KeyedMap(q) for q in seeded_quads()],
                         SMALL, (1.5, 3)) == {1.5: [193, 88], 3: [176, 87]}


def test_population_is_level_invariant():
    """The first 200 points of the seeded population; all 400 give
    [146, 0] at c = 3."""
    makes = [lambda q=q: KeyedMap(q) for q in population()[:200]]
    assert decided_pairs(makes, SMALL, (3,)) == {3: [71, 0]}


# The deep frozen points: Undecided at every level.
DEEP = ("slice2", "slice3", "slice4")


def test_decided_frozen_points_are_level_invariant():
    makes = [p.values[0] for p in frozen_maps() if p.id not in DEEP]
    assert decided_pairs(makes, BqParams(), (1.5, 2, 3)) \
        == {c: [12, 10] for c in (1.5, 2, 3)}


EASY = ["4", "4", "4", "-63.30495168499706", "0", "0", "0"]


@pytest.mark.parametrize("level, certificate", [
    ([], "3 faces, 9 edges"), (["--k", "3"], "6 faces, 15 edges"),
    (["--k", "6"], "27 faces, 70 edges"),
    (["--k", "12"], "57 faces, 148 edges")])
def test_check_stays_in_bq_at_every_level(level, certificate, capsys):
    assert cli.main(["check", *EASY, *level]) == cli.EXIT_IN_BQ
    out = capsys.readouterr().out.splitlines()
    assert "verdict: InBQ" in out
    assert "certificate: " + certificate in out


def test_check_rejects_a_level_below_two_plus_m(capsys):
    assert cli.main(["check", *EASY, "--k", "1.5"]) == cli.EXIT_USAGE
    assert "error: K must be at least 2 + M" in capsys.readouterr().err
