"""render_slice sizes its process pool by the rows it has to decide."""

import concurrent.futures

from bqdomain.render import SliceConfig, render_slice

from conftest import SLICE_DOC

# A real slice decides each conjugate pair of rows once: 2x4 pixels have
# two rows to hand out, 2x2 pixels only one.
DOC = dict(SLICE_DOC, budgets={"max_faces": 64})
CONFIG = SliceConfig.from_json(dict(DOC, px=[2, 4]))
ONE_ROW = SliceConfig.from_json(dict(DOC, px=2))


class FakePool:
    """Stands in for ProcessPoolExecutor: runs tasks in this process
    and records the pool size and each task's row."""

    seen = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, configs, rows):
        rows = list(rows)
        FakePool.seen.append((self.max_workers, rows))
        return list(map(fn, configs, rows))


def test_pool_is_capped_at_the_row_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    FakePool.seen = []
    body8, worst8 = render_slice(CONFIG, workers=8)
    assert FakePool.seen == [(2, [0, 1])]
    assert (body8, worst8) == render_slice(CONFIG, workers=1)


def test_one_decided_row_starts_no_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    FakePool.seen = []
    body8, worst8 = render_slice(ONE_ROW, workers=8)
    assert FakePool.seen == []
    assert (body8, worst8) == render_slice(ONE_ROW, workers=1)
