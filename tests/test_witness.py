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


# A raw quad whose face (1, 4) has value 1.05e-8j, ten times TOL_REAL off
# the band, so that its multiplier has modulus about 1 + 1e-8: the arc is
# finite.  In floats psi^2 - 2 rounds to -2 and the modulus to exactly 1.
ROUNDED_ONE = ("0,1.5e-9", "1", "5", "7", "0", "0", "0")


def test_a_multiplier_rounded_to_modulus_one_is_overflow(capsys):
    """Not an infinite arc: no threshold can be computed in floats, so
    the point is Undecided on overflow, not NotBQ."""
    assert cli.main(["check", *ROUNDED_ONE]) == cli.EXIT_UNDECIDED
    assert "verdict: Undecided (budget: overflow)" \
        in capsys.readouterr().out.splitlines()


def test_h_star_raises_on_a_multiplier_rounded_to_modulus_one():
    m = raw_map((1.5e-9j, 1, 5, 7), (0, 0, 0))
    with pytest.raises(ArithmeticError):
        neighbors.h_star(m.boundary, FaceKey("", (1, 2)), m.root,
                         BqParams().level(m))


# ROADMAP item 18's reproduction: the descent's move on colour 3 cancels
# to exactly 0 in floats where exact arithmetic leaves about 3866 + 992j,
# and h_star reads the zero as a vanishing region value.
CANCELLED_DESCENT = (
    "8524486303.828581,70359044657.95567",
    "4945445.619896387,-19928381.745976772",
    "-2.040611122361555e+19,1.87286254225116e+19",
    "12.342274119925545,-14.489038677626752",
    "0.9308950636746154,1.9901192211914416",
    "1.7263819922695678,-0.6830289605056192",
    "-1.2579512401679684,1.7435262061595194")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: the float descent "
                   "cancels a region value to 0, read as an infinite arc")
def test_a_cancelled_descent_is_not_a_witness():
    values = [cli.parse_complex(s) for s in CANCELLED_DESCENT]
    m = MarkoffMap(MarkoffQuad(tuple(values[:4]), BoundaryData(values[4:]),
                               on_variety=False))
    assert decide_bq(m).status is not Status.NOT_BQ
