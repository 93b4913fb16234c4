"""Slice rendering: config validation, pixel math, PPM output,
determinism, and the command-line interface."""

import json
import math

import pytest

from bqdomain.bq import (AttractingTree, BqVerdict, Status, Witness,
                         WitnessKind)
from bqdomain.cli import main
from bqdomain.render import (SliceConfig, classify_pixel, pixel_rgb,
                             pixel_value, point_coords, render_slice,
                             write_ppm)
from bqdomain.tree import FaceKey
from conftest import IN_BQ_T_VALUES, in_bq_quad

SIX_FIXED = {"a": 0, "b": 0, "c": 0, "x": 0, "y": 0, "z": 0}


def small_config(**over):
    kw = dict(fixed=dict(SIX_FIXED), varying="d", center=0j,
              width=8.0, height=8.0, px=(4, 4))
    kw.update(over)
    return SliceConfig(**kw)


class TestConfig:
    def test_rejects_unknown_varying(self):
        with pytest.raises(ValueError):
            small_config(varying="q", fixed=dict(SIX_FIXED))

    def test_rejects_wrong_fixed_set(self):
        bad = dict(SIX_FIXED)
        bad["d"] = 1
        del bad["x"]
        with pytest.raises(ValueError):
            small_config(fixed=bad)

    # The constructor checks what from_json checks: NaN, infinity and
    # non-finite coordinates are rejected, not left to the first pixel.
    @pytest.mark.parametrize("over", [
        {"width": 0.0}, {"px": (0, 4)}, {"width": math.nan},
        {"height": math.inf}, {"center": complex(math.nan, 0)},
        {"fixed": dict(SIX_FIXED, a=complex(0, math.inf))}],
        ids=["width_zero", "px_zero", "width_nan", "height_inf",
             "center_nan", "fixed_inf"])
    def test_rejects_degenerate_window(self, over):
        with pytest.raises(ValueError):
            small_config(**over)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            small_config(mode="nope")

    def test_from_json_pairs_and_budgets(self):
        doc = {"fixed": {k: [v, 0] for k, v in SIX_FIXED.items()},
               "varying": "d", "center": [1, 2], "width": 4, "height": 4,
               "px": 8, "budgets": {"max_faces": 17}}
        cfg = SliceConfig.from_json(doc)
        assert cfg.center == 1 + 2j
        assert cfg.px == (8, 8)
        assert cfg.params.max_faces == 17
        assert SliceConfig.from_json(dict(doc, px=[8, 6])).px == (8, 6)


class TestPixelMath:
    def test_single_pixel_is_center(self):
        cfg = small_config(px=(1, 1), center=3 - 1j)
        assert pixel_value(cfg, 0, 0) == 3 - 1j

    def test_corners_and_orientation(self):
        cfg = small_config(px=(2, 2), center=0j, width=2.0, height=2.0)
        assert pixel_value(cfg, 0, 0) == -0.5 + 0.5j   # top-left
        assert pixel_value(cfg, 1, 1) == 0.5 - 0.5j    # bottom-right

    def test_solve_mode_fills_d(self):
        cfg = small_config(
            fixed={"a": 1, "b": 1, "c": 1, "d": 99, "y": 0, "z": 0},
            varying="x", mode="solve_plus")
        # the fixed d is a placeholder: solve modes recompute it from
        # the vertex relation at each pixel
        coords, _ = point_coords(cfg, 0j)
        assert coords["d"] == pytest.approx((-1 + 5 ** 0.5) / 2)


class TestClassify:
    """A pixel's verdict; ``test_palette`` paints it the colour in the
    test's name."""

    def test_member_pixel_black(self):
        t = IN_BQ_T_VALUES[0]
        d = in_bq_quad(t)[4]
        cfg = small_config(
            fixed={"a": t, "b": t, "c": t, "x": 0, "y": 0, "z": 0},
            px=(1, 1), center=complex(d), width=1e-6, height=1e-6)
        verdict, residual = classify_pixel(cfg, 0, 0)
        assert verdict.status is Status.IN_BQ
        assert residual < 1e-6

    def test_band_pixel_blue(self):
        cfg = small_config(px=(1, 1), center=2 + 0j,
                           width=1e-6, height=1e-6)
        verdict, _ = classify_pixel(cfg, 0, 0)
        assert verdict.status is Status.NOT_BQ
        assert verdict.witness.kind is WitnessKind.BQ1_VIOLATION


FACE = FaceKey("", (1, 2))
BUDGETS = ["max_descent_steps", "overflow", "no_seed_face", "precision",
           "max_arc_steps", "max_faces", "max_total_edges"]


def verdicts(status_or_kind, steps):
    """Every verdict of a status, under each budget when Undecided, or
    the NotBQ verdict of a witness kind, that spent the given steps."""
    if status_or_kind is Status.IN_BQ:
        return [BqVerdict(Status.IN_BQ, AttractingTree(), steps_used=steps)]
    if status_or_kind is Status.UNDECIDED:
        return [BqVerdict(Status.UNDECIDED, budget_hit=b, steps_used=steps)
                for b in BUDGETS]
    return [BqVerdict(Status.NOT_BQ, witness=Witness(status_or_kind, FACE),
                      steps_used=steps)]


# status or witness kind -> its colour at a shade; the shade is
# 255 - min(191, steps_used)
PALETTE = {Status.IN_BQ: lambda s: (0, 0, 0),
           Status.UNDECIDED: lambda s: (255, 255, 255),
           WitnessKind.BQ1_VIOLATION: lambda s: (0, 0, s),
           WitnessKind.SIGMA_ZERO: lambda s: (0, 255, 0),
           WitnessKind.INFINITE_ARC: lambda s: (s, 0, 0)}


@pytest.mark.parametrize("steps, shade", [(0, 255), (5, 250), (191, 64),
                                          (500, 64)])
@pytest.mark.parametrize("status_or_kind", list(PALETTE),
                         ids=lambda k: k.value)
def test_palette(status_or_kind, steps, shade):
    for verdict in verdicts(status_or_kind, steps):
        assert pixel_rgb(verdict) == PALETTE[status_or_kind](shade)


class TestRender:
    def test_deterministic_across_runs_and_workers(self):
        cfg = small_config()
        body1, res1 = render_slice(cfg, workers=1)
        body2, _ = render_slice(cfg, workers=1)
        body4, res4 = render_slice(cfg, workers=2)
        assert body1 == body2 == body4
        assert res1 == res4
        assert len(body1) == 3 * 16

    def test_ppm_header(self, tmp_path):
        cfg = small_config()
        body, _ = render_slice(cfg)
        out = tmp_path / "slice.ppm"
        write_ppm(str(out), cfg, body)
        data = out.read_bytes()
        assert data.startswith(b"P6\n4 4\n255\n")
        assert len(data) == len(b"P6\n4 4\n255\n") + 3 * 16

    @pytest.mark.parametrize("size", [0, 47, 49])
    def test_a_body_of_the_wrong_length_is_refused(self, tmp_path, size):
        # A ValueError, not an assert, so that python -O keeps the check.
        out = tmp_path / "slice.ppm"
        with pytest.raises(ValueError, match="body has %d bytes" % size):
            write_ppm(str(out), small_config(), bytes(size))
        assert not out.exists()


class TestCli:
    def test_check_member_exit_zero(self, capsys):
        t = IN_BQ_T_VALUES[0]
        d = in_bq_quad(t)[4]
        argv = ["check"] + [str(v) for v in (t, t, t, d, 0, 0, 0)]
        assert main(argv) == 0
        assert "InBQ" in capsys.readouterr().out

    def test_check_non_member_exit_one(self, capsys):
        argv = ["check", "0", "0", "0", "2", "0", "0", "0"]
        assert main(argv) == 1
        assert "NotBQ" in capsys.readouterr().out

    def test_check_bad_coords_exit_usage(self):
        assert main(["check", "1", "2"]) == 64

    def test_render_bad_config_exit_usage(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"varying": "d"}))
        assert main(["render", "--config", str(bad),
                     "--out", str(tmp_path / "o.ppm")]) == 64

    def test_render_writes_file(self, tmp_path):
        doc = {"fixed": SIX_FIXED, "varying": "d", "center": 0,
               "width": 8, "height": 8, "px": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.ppm"
        assert main(["render", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P6\n2 2\n255\n")

    def test_fib_runs(self, capsys):
        t = IN_BQ_T_VALUES[0]
        d = in_bq_quad(t)[4]
        argv = ["fib"] + [str(v) for v in (t, t, t, d, 0, 0, 0)] \
            + ["--depth", "3"]
        assert main(argv) == 0
        assert "kappa_lower" in capsys.readouterr().out
