"""Reference growth values on the tree and growth diagnostics."""

import math

import pytest

from bqdomain.algebra import BoundaryData, MarkoffQuad
from bqdomain.fib import FibTable, growth_report, keys_to_depth
from bqdomain.tree import (COLORS, FaceKey, RegionKey, ball_vertices,
                           canonical_face, canonical_region)
from conftest import in_bq_quad, make_map, random_markoff_map
from oracles import FaceTable, base_keys, upper_bound_holds

ZERO = BoundaryData((0.0, 0.0, 0.0))


class TestTable:
    def test_base_values(self):
        t = FaceTable()
        assert [t.region(RegionKey("", c)) for c in COLORS] == [1, 1, 1, 3]
        assert t.region(RegionKey("4", 4)) == 3
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert t.face(FaceKey("", pair)) == 2
        for pair in ((1, 4), (2, 4), (3, 4)):
            assert t.face(FaceKey("", pair)) == 4

    def test_region_recursion(self):
        t = FibTable()
        for v in ball_vertices(4):
            for c in COLORS:
                r = canonical_region(v, c)
                if r.anchor == "" and c != 4:
                    continue
                total = sum(t.region(canonical_region(r.anchor, o))
                            for o in COLORS if o != c)
                assert t.region(r) == total

    def test_face_is_sum_of_bounding_regions(self):
        t = FaceTable()
        for v in ball_vertices(4):
            for i in COLORS:
                for j in COLORS:
                    if i < j:
                        f = canonical_face(v, i, j)
                        s = (t.region(canonical_region(f.anchor, i))
                             + t.region(canonical_region(f.anchor, j)))
                        assert t.face(f) == s

    def test_base_keys_and_depth_enumeration(self):
        regions, faces = base_keys()
        assert len(regions) == 3 and len(faces) == 3
        r2, f2 = keys_to_depth(2)
        assert RegionKey("", 4) in r2
        assert all(len(k.anchor) <= 2 for k in r2)


class TestGrowthReport:
    def test_member_grows_uniformly(self):
        rep = growth_report(make_map(in_bq_quad(4.0)), FibTable(), 4)
        assert rep.kappa_lower > 0
        assert rep.kappa_upper >= rep.kappa_lower
        assert rep.argmin is not None

    def test_bounded_orbit_has_zero_floor(self):
        m = make_map(MarkoffQuad((0, 0, 0, 2), ZERO))
        rep = growth_report(m, FibTable(), 3)
        assert rep.kappa_lower == 0

    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            growth_report(make_map(in_bq_quad(4.0)), FibTable(), 1)

    def test_saturated_values_stay_finite(self):
        m = make_map(MarkoffQuad((1e100, 1e100, 1e100, 1e100), ZERO,
                                 on_variety=False))
        rep = growth_report(m, FibTable(), 3)
        assert math.isfinite(rep.kappa_upper)


class TestUpperBound:
    def test_holds_on_random_maps(self, rng):
        for _ in range(10):
            assert upper_bound_holds(random_markoff_map(rng), 3)

    def test_holds_on_member(self):
        assert upper_bound_holds(make_map(in_bq_quad(7.0)), 4)
