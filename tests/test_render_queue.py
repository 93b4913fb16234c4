"""render_slice hands its decided rows out one at a time, so that
whichever child is free takes the next row.  A child reports once, after
the rows run out, so that no pipe size can stall the feed or the reads,
and a child that a signal kills is a named error."""

import os
import signal
import time

import pytest

from bqdomain import render
from bqdomain.render import SliceConfig, render_slice

from test_render_pool import DOC, no_child_left

pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="rows are forked out only on POSIX"),
              pytest.mark.usefixtures("time_bound")]

# A real 2x8 slice decides rows 0-3 and copies rows 4-7 from them.
FOUR_ROWS = SliceConfig.from_json(dict(DOC, px=[2, 8]))


def test_each_decided_row_is_its_own_batch(monkeypatch, tmp_path):
    want = render_slice(FOUR_ROWS, workers=1)
    log, decide = tmp_path / "rows", render._render_rows

    def slow_row_zero(config, row):
        if row == 0:
            time.sleep(0.5)
        with open(log, "a") as fh:
            fh.write("%d %d\n" % (os.getpid(), row))
        return decide(config, row)
    monkeypatch.setattr(render, "_render_rows", slow_row_zero)
    assert render_slice(FOUR_ROWS, workers=2) == want
    no_child_left()
    rows = {}
    for line in log.read_text().splitlines():
        pid, row = map(int, line.split())
        rows.setdefault(pid, []).append(row)
    # one child sleeps on row 0 while the other decides all the rest
    assert sorted(rows.values()) == [[0], [1, 2, 3]]


# Every pixel of this window is NotBQ at the root, so the sizes alone
# load the pipes: 20,000 row numbers are more than one 64 KiB pipe
# holds, and a 25,000-pixel row's 75,000 bytes more than a pipe.
FLAT = {"fixed": {"b": 0, "c": 0, "d": 2, "x": 0, "y": 0, "z": 0},
        "varying": "a", "center": [0, 0.001], "width": 1e-3,
        "height": 1e-3, "mode": "raw"}


@pytest.mark.parametrize("px", [[1, 20000], [25000, 2]],
                         ids=["more_rows_than_a_pipe",
                              "a_row_past_a_pipe"])
def test_no_pipe_size_stalls_the_render(px):
    config = SliceConfig.from_json(dict(FLAT, px=px))
    assert render.mirror_rows(config) == {}
    assert render_slice(config, workers=2) == render_slice(config, workers=1)
    no_child_left()


def test_a_child_killed_by_a_signal_is_a_named_error(monkeypatch):
    decide = render._render_rows

    def killed_on_row_one(config, row):
        if row == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return decide(config, row)
    monkeypatch.setattr(render, "_render_rows", killed_on_row_one)
    killed = "worker [12] was killed by signal %d" % signal.SIGKILL
    with pytest.raises(ChildProcessError, match=killed):
        render_slice(FOUR_ROWS, workers=2)
    no_child_left()


def test_children_that_all_raise_end_the_feed(monkeypatch):
    """Each child raises on its first row while more rows remain than a
    pipe holds: the feed stops at the broken pipe, and the exception a
    child raised reaches the caller."""
    def fails(config, row):
        raise ValueError("row %d" % row)
    monkeypatch.setattr(render, "_render_rows", fails)
    config = SliceConfig.from_json(dict(FLAT, px=[1, 20000]))
    with pytest.raises(ValueError, match="row "):
        render_slice(config, workers=2)
    no_child_left()
