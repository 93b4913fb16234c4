"""The band and sigma witness test, run once per popped face.

``neighbors.face_obstruction`` is the one copy of the test; ``face_witness``
and ``h_star`` both call it, and the closure in ``decide_bq`` looks a
witness up only when a face's arc walk does not end finite.  These tests
pin every exit of ``decide_bq``'s closure, count the sigma evaluations,
and pin the verdicts of the two NotBQ kinds that only the closure or a
vanishing sigma produce, which ``test_render.test_palette`` paints.
"""

import cmath

import pytest

from bqdomain import cli, neighbors
from bqdomain.algebra import BoundaryData, MarkoffQuad
from bqdomain.bq import BqParams, Status, WitnessKind, decide_bq, find_sink
from bqdomain.markoff import MarkoffMap
from bqdomain.tree import FaceKey

from conftest import in_bq_quad, slice_map
from oracles import KeyedMap

# An on-variety real point whose band witness is met in the closure, not
# on the descent.
CLOSURE_BAND = ((3.1702986501401407, 2.627465438711056, -3.271800654099125,
                 26.323696145148986),
                (0.6557261960497165, 1.1058154860447833, -0.5279052273337936))
# A raw quad with a face whose arc cannot terminate.
INFINITE_ARC = ((0, 3, 4, 6), (5, 5, 5))
# A raw quad whose root face {1,2} has vanishing sigma: 3^2 + (-5) - 4 = 0.
SIGMA_ZERO = ((3, cmath.sqrt(-5), 0, 0), (0, 0, 0))


def raw_map(values, omega) -> KeyedMap:
    return KeyedMap(MarkoffQuad(tuple(complex(v) for v in values),
                                BoundaryData(omega), on_variety=False))


class TestDecideExits:
    @pytest.mark.parametrize("make, params, want", [
        (lambda: raw_map(*CLOSURE_BAND), BqParams(),
         (Status.NOT_BQ, WitnessKind.BQ1_VIOLATION, FaceKey("4", (1, 4)),
          None, 2)),
        (lambda: raw_map(*INFINITE_ARC), BqParams(),
         (Status.NOT_BQ, WitnessKind.INFINITE_ARC, FaceKey("2", (1, 2)),
          None, 5)),
        (lambda: MarkoffMap(in_bq_quad(4.0)), BqParams(max_descent_steps=0),
         (Status.UNDECIDED, None, None, "max_descent_steps", 0)),
        (lambda: slice_map(-2.25 - 2.25j), BqParams(max_total_edges=10),
         (Status.UNDECIDED, None, None, "max_total_edges", 2))],
        ids=["closure_band", "infinite_arc", "descent_budget",
             "edge_budget"])
    def test_exit_pinned(self, make, params, want):
        v = decide_bq(make(), params)
        w = v.witness
        assert (v.status, w and w.kind, w and w.face, v.budget_hit,
                v.steps_used) == want

    def test_closure_band_witness_is_not_on_the_descent(self):
        m = raw_map(*CLOSURE_BAND)
        d = find_sink(m, BqParams())
        assert d.witness is None and d.vertex is not None
        w = decide_bq(raw_map(*CLOSURE_BAND)).witness
        assert w.value == m.eval_face(w.face)


def counted_sigma(monkeypatch):
    calls = []
    sigma = neighbors.sigma

    def counting(*args):
        calls.append(args)
        return sigma(*args)
    monkeypatch.setattr(neighbors, "sigma", counting)
    return calls


@pytest.mark.parametrize("a", [-2.25 - 2.25j, 3.75 + 3.75j])
def test_sigma_once_per_popped_face(a, monkeypatch):
    calls = counted_sigma(monkeypatch)
    find_sink(slice_map(a), BqParams())
    on_descent = len(calls)
    del calls[:]
    v = decide_bq(slice_map(a))
    assert v.status is Status.IN_BQ
    # every popped face of a certificate has a finite arc: its sigma is
    # evaluated once, by h_star
    assert len(calls) == on_descent + len(v.tree.arc_bounds)


class TestRenderColours:
    """The verdicts that ``test_render.test_palette`` paints green, and
    red shaded by 5 steps."""

    def test_sigma_zero_is_green(self):
        v = decide_bq(raw_map(*SIGMA_ZERO))
        assert v.status is Status.NOT_BQ
        assert v.witness.kind is WitnessKind.SIGMA_ZERO
        # The descent's witness: only a band witness carries the face value.
        assert v.steps_used == 0 and v.witness.value is None

    def test_infinite_arc_is_red_by_steps(self):
        v = decide_bq(raw_map(*INFINITE_ARC))
        assert v.status is Status.NOT_BQ
        assert (v.witness.kind, v.steps_used) == (WitnessKind.INFINITE_ARC, 5)


@pytest.mark.parametrize("coords, lines, value", [
    (["2", "0", "0", "0", "0", "0", "0"],
     ["verdict: NotBQ (bq1_violation)",
      "witness face: FaceKey(anchor='', colors=(1, 2))"], "0j"),
    (["3", "0,2.23606797749979", "0", "0", "0", "0", "0"],
     ["verdict: NotBQ (sigma_zero)",
      "witness face: FaceKey(anchor='', colors=(1, 2))"], None)],
    ids=["bq1_violation", "sigma_zero"])
def test_check_prints_the_not_bq_witness(coords, lines, value, capsys):
    """A band witness prints its value; a sigma witness carries none, so
    check prints no value line for it."""
    assert cli.main(["check", *coords]) == cli.EXIT_NOT_BQ
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines)
    values = [line for line in out if line.startswith("witness value: ")]
    assert values == ([] if value is None else ["witness value: " + value])
