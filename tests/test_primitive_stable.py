"""BQ is strictly larger than the primitive-stable set (Minsky 2013).

At a = b = c = 5 with omega = (0.2, 0, 0) the point is InBQ for either
root of the vertex relation.  There x = tr AB lies in (-2, 2), and AB is
primitive, so AB is elliptic and the character is not primitive-stable.
The same a, b, c with a larger omega give NotBQ points whose witness is
a BQ1 violation, so the InBQ verdict is not read off a, b, c alone."""

import pytest

from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice,
                              solve_fourth)
from bqdomain.bq import Status, WitnessKind, decide_bq
from bqdomain.markoff import MarkoffMap


def verdict(omega, which):
    boundary = BoundaryData(tuple(complex(t) for t in omega))
    d = solve_fourth(5, 5, 5, boundary, which)
    return decide_bq(MarkoffMap(MarkoffQuad((5, 5, 5, d), boundary)))


@pytest.mark.parametrize("which", list(RootChoice))
def test_an_elliptic_primitive_point_is_in_bq(which):
    # x = tr AB = 0.2 lies in (-2, 2): AB is elliptic
    assert verdict((0.2, 0, 0), which).status is Status.IN_BQ


@pytest.mark.parametrize("which", list(RootChoice))
@pytest.mark.parametrize("omega", [(1, 1, 1), (0.5, 0.5, 0.5), (1.9, 0, 0)])
def test_a_larger_omega_is_not_bq(omega, which):
    v = verdict(omega, which)
    assert v.status is Status.NOT_BQ
    assert v.witness.kind is WitnessKind.BQ1_VIOLATION
