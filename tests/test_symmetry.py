"""Symmetries of a real slice, checked verdict by verdict.

Complex conjugation commutes with the mapping class group action, and
every operation ``decide_bq`` applies commutes with it bitwise, so at
the conjugate of a point with real b, c and boundary traces it returns
the same record, with the conjugate witness value.  On the render slice
a -> -a also keeps every pixel's colour.
"""

import numpy as np

from bqdomain.algebra import (BoundaryData, MarkoffQuad, RootChoice,
                              solve_fourth)
from bqdomain.bq import BqParams, decide_bq
from bqdomain.markoff import MarkoffMap
from bqdomain.render import (SliceConfig, classify_pixel, pixel_rgb,
                             pixel_value)

from conftest import SLICE_DOC, slice_map
from test_carried_decide import record

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
