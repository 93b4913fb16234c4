"""``fib.growth_report`` walks the ball once, carrying quads and growth
values; it must give the same report, bit for bit and with the same
``argmin``, as the key-by-key reference in ``oracles``."""

import numpy as np
import pytest

from bqdomain import cli
from bqdomain.algebra import BoundaryData, MarkoffQuad
from bqdomain.fib import FibTable, growth_report
from bqdomain.markoff import MarkoffMap
from conftest import in_bq_quad, random_markoff_map
from oracles import (FaceTable, KeyedMap, growth_report_reference,
                     upper_bound_holds)

ZERO = BoundaryData((0.0, 0.0, 0.0))

RANDOM_QUADS = [random_markoff_map(np.random.default_rng(seed)).root_quad
                for seed in range(30)]

SPECIAL_QUADS = {
    # (t, t, t, d): symmetric, so many keys tie for the minimum.
    "t4": in_bq_quad(4.0),
    "bounded": MarkoffQuad((0, 0, 0, 2), ZERO),
    "saturated": MarkoffQuad((1e100,) * 4, ZERO, on_variety=False),
}


def assert_same_report(quad, depth):
    got = growth_report(KeyedMap(quad), FibTable(), depth)
    want = growth_report_reference(KeyedMap(quad), FaceTable(), depth)
    assert got.argmin == want.argmin
    assert got.kappa_lower.hex() == want.kappa_lower.hex()
    assert got.kappa_upper.hex() == want.kappa_upper.hex()
    assert got == want


@pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
def test_matches_reference_on_random_points(depth):
    for quad in RANDOM_QUADS:
        assert_same_report(quad, depth)


@pytest.mark.parametrize("name", sorted(SPECIAL_QUADS))
@pytest.mark.parametrize("depth", [2, 3, 6, 8])
def test_matches_reference_on_special_points(name, depth):
    # t4 at depth 8 is the point and depth of ``bqdomain fib`` in the
    # benchmark.
    assert_same_report(SPECIAL_QUADS[name], depth)


class CountingMap(MarkoffMap):
    """Counts the elementary moves made on it."""

    def __init__(self, root_quad):
        super().__init__(root_quad)
        self.moves = 0

    def _move(self, vals, i):
        self.moves += 1
        return super()._move(vals, i)


@pytest.mark.parametrize("depth", [2, 5, 8])
def test_one_move_per_edge_of_the_ball(depth):
    """The ball has 1 + 2 (3^depth - 1) vertices; the walk moves once into
    each vertex but the root (13,120 moves at depth 8)."""
    m = CountingMap(in_bq_quad(4.0))
    growth_report(m, FibTable(), depth)
    assert m.moves == 2 * (3 ** depth - 1)


def test_fib_command_output_at_depth_8(capsys):
    argv = ["fib", "4.0", "4.0", "4.0", "-63.30495168499706", "0", "0", "0",
            "--depth", "8"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "kappa_lower: 0.195481" in lines
    assert "kappa_upper: 1.384175" in lines
    assert "argmin: FaceKey(anchor='41232323', colors=(3, 4))" in lines


def test_walk_leaves_the_memo_at_the_root_quad():
    m = KeyedMap(in_bq_quad(4.0))
    root = m.quad_at("")
    growth_report(m, FibTable(), 5)
    assert upper_bound_holds(m, 5)
    assert m._quads == {"": root}
