"""Each pixel's point comes from ``point_coords``, which builds the
point's ``BoundaryData`` once; and slices that vary a boundary trace
keep their bytes.

The frozen benchmark slice fixes x, y and z, so these are the only
render-bytes checks of a solve mode whose boundary changes from pixel
to pixel.
"""

import hashlib

import pytest

from bqdomain import render
from bqdomain.render import SliceConfig, mirror_rows, render_slice

from conftest import SLICE_DOC


def vary_x(v, size, mode, px=8):
    """a = b = c = v, y = z = 0 and a placeholder d; x sweeps a square
    window of the given size about 0."""
    return SliceConfig.from_json({
        "fixed": {"a": v, "b": v, "c": v, "d": 0, "y": 0, "z": 0},
        "varying": "x", "center": [0, 0], "width": size, "height": size,
        "px": px, "mode": mode, "budgets": {"max_faces": 200}})


@pytest.mark.parametrize("config", [
    vary_x(1, 8.0, "solve_plus", px=4),
    SliceConfig.from_json(dict(SLICE_DOC, px=4, budgets={"max_faces": 64}))],
    ids=["solve_varying_x", "xyz_fixed"])
def test_one_boundary_per_decided_pixel(config, monkeypatch):
    built = []
    make = render.BoundaryData

    def count(omega):
        built.append(omega)
        return make(omega)
    monkeypatch.setattr(render, "BoundaryData", count)
    render_slice(config, workers=1)
    w, h = config.px
    assert len(built) == w * (h - len(mirror_rows(config)))


# sha256 of the pixel bytes, and the pixel count of each verdict, read
# from the palette: black InBQ, white Undecided, any other colour NotBQ.
GOLDEN = {
    "all_ones_plus": (
        vary_x(1, 8.0, "solve_plus"),
        "5cbcf971814a4972e794e7db605f01bc4180574228d7aa518f1d9d9dc7886201",
        {"in_bq": 0, "not_bq": 64, "undecided": 0}),
    "all_twos_minus": (
        vary_x(2, 12.0, "solve_minus"),
        "4de7e274c57a2c87d0994518f103befb61654c57bfbbb06d76ffe0601884bd11",
        {"in_bq": 42, "not_bq": 0, "undecided": 22}),
}


def verdict_counts(body):
    pixels = [body[i:i + 3] for i in range(0, len(body), 3)]
    black, white = pixels.count(b"\0\0\0"), pixels.count(b"\xff\xff\xff")
    return {"in_bq": black, "not_bq": len(pixels) - black - white,
            "undecided": white}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_solve_slice_varying_x_keeps_its_bytes(name):
    config, digest, counts = GOLDEN[name]
    body, worst = render_slice(config, workers=1)
    assert hashlib.sha256(body).hexdigest() == digest
    assert verdict_counts(body) == counts
    assert render_slice(config, workers=2) == (body, worst)
