"""render_slice's pool is its forked children: one per decided row, up
to its worker count, every one reaped before it returns, and the bytes
are the one-worker render's."""

import os

import pytest

from bqdomain.render import SliceConfig, render_slice

from conftest import SLICE_DOC

pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="rows are forked out only on POSIX"),
              pytest.mark.usefixtures("time_bound")]

# A real slice decides each conjugate pair of rows once: 2x4 pixels have
# two rows to hand out, 2x2 pixels only one.
DOC = dict(SLICE_DOC, budgets={"max_faces": 64})
CONFIG = SliceConfig.from_json(dict(DOC, px=[2, 4]))
ONE_ROW = SliceConfig.from_json(dict(DOC, px=2))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def no_child_left():
    """Fail unless no child of this process is running or waiting to be
    reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_capped_at_the_row_count(forks):
    body8, worst8 = render_slice(CONFIG, workers=8)
    assert len(forks) == 2
    no_child_left()
    assert (body8, worst8) == render_slice(CONFIG, workers=1)


def test_one_decided_row_starts_no_pool(forks):
    body8, worst8 = render_slice(ONE_ROW, workers=8)
    assert forks == []
    assert (body8, worst8) == render_slice(ONE_ROW, workers=1)


# The benchmark's 16x16 slice decides 8 rows: at 8 workers, more than
# the cores of most test machines, each child decides one of them.
@pytest.mark.parametrize("workers", [3, 8])
def test_more_workers_give_the_one_worker_bytes(forks, workers):
    config = SliceConfig.from_json(SLICE_DOC)
    got = render_slice(config, workers)
    assert len(forks) == workers
    no_child_left()
    assert got == render_slice(config, workers=1)
