"""render_slice sizes its process pool by the rows it has to hand out."""

import concurrent.futures

from bqdomain.render import SliceConfig, render_slice

# 2x2 pixels: two rows to hand out.
CONFIG = SliceConfig.from_json({
    "fixed": {"b": 3, "c": 3, "d": 0, "x": 0, "y": 0, "z": 0},
    "varying": "a", "center": [0, 0], "width": 12.0, "height": 12.0,
    "px": 2, "mode": "solve_minus", "budgets": {"max_faces": 64}})


class FakePool:
    """Stands in for ProcessPoolExecutor: runs batches in this process
    and records the pool size and the batch sizes it was given."""

    seen = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, batches):
        batches = list(batches)
        FakePool.seen.append((self.max_workers,
                              [len(rows) for _, rows in batches]))
        return [fn(b) for b in batches]


def test_pool_is_capped_at_the_row_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    FakePool.seen = []
    body8, worst8 = render_slice(CONFIG, workers=8)
    assert FakePool.seen == [(2, [1, 1])]
    assert (body8, worst8) == render_slice(CONFIG, workers=1)
