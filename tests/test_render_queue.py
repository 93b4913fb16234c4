"""render_slice hands its decided rows to the pool one at a time, so
that whichever worker is free takes the next row."""

import concurrent.futures

from bqdomain.render import SliceConfig, render_slice

from test_render_pool import DOC, FakePool

# A real 2x8 slice decides rows 0-3 and copies rows 4-7 from them.
FOUR_ROWS = SliceConfig.from_json(dict(DOC, px=[2, 8]))


def test_each_decided_row_is_its_own_batch(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    FakePool.seen = []
    body2, worst2 = render_slice(FOUR_ROWS, workers=2)
    assert FakePool.seen == [(2, [0, 1, 2, 3])]
    assert (body2, worst2) == render_slice(FOUR_ROWS, workers=1)
