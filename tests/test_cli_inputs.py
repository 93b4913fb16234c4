"""Outside input that the command line must report instead of crashing
on or silently using: overflowing coordinates in ``check``, render
budgets that are not the four ``max_*`` integers, config pairs that are
not two numbers, a config or ``fixed`` that is not a JSON object, a
window size that is not a real number, and a level threshold K
(``--k``, ``k_override``) that is not a real number with a finite
square, a render worker count (``--threads``) below one, a torelli
trial count (``--trials``) below one, a boundary trace whose parts are
finite but whose modulus is past float range, a solve-mode slice that
varies d, and a vertex-relation residual that is not finite."""

import json
import math
import os

import pytest

from bqdomain import cli
from bqdomain.render import SliceConfig

SLICE = {"fixed": {"b": 3, "c": 3, "d": 0, "x": 0, "y": 0, "z": 0},
         "varying": "a", "center": [0, 0], "width": 12.0, "height": 12.0,
         "px": 2, "mode": "solve_minus"}


def test_check_reports_overflowing_residual(capsys):
    argv = ["check", "1.5e308,1.5e308", "3", "3", "3", "0", "0", "0"]
    assert cli.main(argv) == cli.EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert "residual: not finite (a coordinate is too large)" in out
    assert err == ""


# check and render read one residual rule: a residual whose parts are
# finite but whose modulus is past float range, or whose part is NaN,
# reads inf.  abs() raised OverflowError on the first, so render exited
# 1, NotBQ's code; max() dropped the NaN of the second and reported 0.
TOO_LARGE = [1.0162674857624154e+154, 4.209517756015988e+153]


@pytest.mark.parametrize("fixed", [
    {"a": TOO_LARGE, "b": TOO_LARGE, "c": 0, "x": 0, "y": 0, "z": 0},
    {"a": 1e200, "b": 1e200, "c": 0, "x": 1, "y": 0, "z": 0}],
    ids=["modulus_past_float_range", "nan_part"])
def test_render_reports_non_finite_residual(fixed, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.ppm"
    cfg.write_text(json.dumps({"fixed": fixed, "varying": "d",
                               "center": [0, 0], "width": 1, "height": 1,
                               "px": 2}))
    assert cli.main(["render", "--config", str(cfg), "--out", str(out)]) == 0
    assert "max residual inf" in capsys.readouterr().out
    assert (tmp_path / "o.ppm.report.txt").read_text() \
        == "max |vertex relation residual| over window: inf\n"


def render_exits_usage(doc, tmp_path, capsys):
    """``bqdomain render`` on doc prints ``bad config``, exits 64 and
    writes no image."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.ppm"
    assert cli.main(["render", "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budgets", [
    {"max_faces": "500"}, {"tol_real": 3.0}, {"max_faces": -1},
    {"max_faces": True}, {"max_faces": 1.5}, {"K": 9}, ["max_faces"]])
def test_render_rejects_bad_budgets(budgets, tmp_path, capsys):
    doc = dict(SLICE, budgets=budgets)
    with pytest.raises(ValueError):
        SliceConfig.from_json(doc)
    render_exits_usage(doc, tmp_path, capsys)


def test_render_accepts_the_four_budgets():
    budgets = {"max_descent_steps": 0, "max_faces": 500,
               "max_arc_steps": 2000, "max_total_edges": 100000}
    params = SliceConfig.from_json(dict(SLICE, budgets=budgets)).params
    assert {k: getattr(params, k) for k in budgets} == budgets


@pytest.mark.parametrize("k", ["9", math.nan, 1e155])
def test_render_rejects_bad_k_override(k, tmp_path, capsys):
    render_exits_usage(dict(SLICE, k_override=k), tmp_path, capsys)


# A short pair or an int past float range must not crash render with exit
# 1, NotBQ's code, and a long pair, a string, a bool or a fraction must not
# be read as a number.
@pytest.mark.parametrize("change", [
    {"center": [1]}, {"center": [0, 0, 9]}, {"center": [True, 0]},
    {"center": "1"}, {"fixed": dict(SLICE["fixed"], b=[4])},
    {"fixed": dict(SLICE["fixed"], b="4")}, {"px": [8]}, {"px": "88"},
    {"px": True}, {"px": [8, 8, 8]}, {"px": [8, 8.5]}, {"px": 8.0},
    {"center": [10**400, 0]}, {"fixed": dict(SLICE["fixed"], b=10**400)}])
def test_render_rejects_bad_pairs(change, tmp_path, capsys):
    doc = dict(SLICE, **change)
    with pytest.raises(ValueError):
        SliceConfig.from_json(doc)
    render_exits_usage(doc, tmp_path, capsys)


# A list where an object belongs or a size past float range must not crash
# render with exit 1, and a bool, a string, NaN or infinity must not be
# read as the window's size.  A solve mode overwrites d at every pixel,
# so varying d would render one point.
@pytest.mark.parametrize("doc", [
    [], dict(SLICE, fixed=[]), dict(SLICE, width=True),
    dict(SLICE, width="12"), dict(SLICE, height=True),
    dict(SLICE, height="12"), dict(SLICE, width=10**400),
    dict(SLICE, width=math.inf), dict(SLICE, height=math.nan),
    dict(SLICE, varying="d",
         fixed={"a": 0, "b": 3, "c": 3, "x": 0, "y": 0, "z": 0})],
    ids=["doc_list", "fixed_list", "width_true", "width_str", "height_true",
         "height_str", "width_huge_int", "width_inf", "height_nan",
         "solve_varies_d"])
def test_render_rejects_bad_shapes(doc, tmp_path, capsys):
    with pytest.raises(ValueError):
        SliceConfig.from_json(doc)
    render_exits_usage(doc, tmp_path, capsys)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_render_rejects_threads_below_one(threads, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SLICE))
    out = tmp_path / "o.ppm"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == cli.EXIT_USAGE
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_torelli_rejects_trials_below_one(trials, capsys):
    assert cli.main(["torelli", "--trials", trials]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --trials must be at least 1\n"


@pytest.mark.parametrize("k", ["inf", "nan", "1e155"])
def test_check_rejects_non_finite_k(k, capsys):
    argv = ["check", "--k", k, "4.0", "4.0", "4.0", "-63.30495168499706",
            "0", "0", "0"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")



# A finite pair whose modulus is past float range, as a boundary trace,
# must not crash a command with exit 1, NotBQ's code.  The complex x
# stops the row mirror, so at two threads each of the two rows is
# decided in a forked child, whose ValueError reaches the command.
@pytest.mark.parametrize("command", ["check", "fib", "render",
                                     "render --threads 2"])
def test_boundary_trace_past_float_range(command, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.ppm"
    cfg.write_text(json.dumps(dict(SLICE, fixed=dict(
        SLICE["fixed"], x=[1.5e308, 1.5e308]))))
    argv = command.split() + ["--config", str(cfg), "--out", str(out)] \
        if command.startswith("render") else \
        [command, "0", "0", "0", "0", "1.5e308,1.5e308", "0", "0"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    with pytest.raises(ChildProcessError):     # no child left behind
        os.waitpid(-1, os.WNOHANG)
