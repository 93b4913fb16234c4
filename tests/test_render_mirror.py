"""A real slice is rendered once per conjugate pair of rows.

Pixel centres are odd in the row about the middle, so on a real config
of any height h, rows r and h-1-r sweep exact conjugates and all h//2
pairs are shared.  Each config renders at 1 and 2 workers to the bytes
and worst residual of deciding every row, ``_render_rows`` over all of
them in row order.  A config with a complex fixed coordinate or an
off-axis centre decides every pixel, and the frozen 16x16 slice decides
half of them.
"""

import pytest

from bqdomain import render
from bqdomain.render import (SliceConfig, _render_rows, mirror_rows,
                             pixel_value, render_slice)

from conftest import SLICE_DOC


def small(**over):
    doc = dict(SLICE_DOC, px=[4, 4], budgets={"max_faces": 64})
    doc.update(over)
    return SliceConfig.from_json(doc)


MIRRORED = {
    "odd_width": small(px=[5, 4]),
    # an odd height: its middle row is its own mirror and is decided
    "odd_height": small(px=[4, 3]),
    # a height that is not a power of two, so its row centres round: all
    # 5 pairs still mirror
    "partial": small(px=[3, 10]),
    "raw": small(mode="raw", fixed={"b": 3, "c": 3, "d": 1.5,
                                    "x": 0, "y": 0, "z": 0}),
    "omega": small(mode="solve_plus", center=[0.5, 0],
                   fixed={"b": 2.5, "c": -1.25, "d": 0,
                          "x": 0.5, "y": -0.75, "z": 1.0}),
}
FALLBACK = {
    "complex_fixed": small(fixed=dict(SLICE_DOC["fixed"], b=[3, 0.5])),
    "off_axis": small(center=[0, 0.375]),
}


def unmirrored(config):
    rows = [_render_rows(config, row) for row in range(config.px[1])]
    return (b"".join(buf for buf, _ in rows), max(worst for _, worst in rows))


def counting(monkeypatch):
    calls = []
    classify = render.classify_pixel

    def count(config, col, row):
        calls.append((col, row))
        return classify(config, col, row)
    monkeypatch.setattr(render, "classify_pixel", count)
    return calls


@pytest.mark.parametrize("name", sorted(MIRRORED) + sorted(FALLBACK))
def test_render_equals_the_unmirrored_render(name):
    config = {**MIRRORED, **FALLBACK}[name]
    want = unmirrored(config)
    assert render_slice(config, workers=1) == want
    assert render_slice(config, workers=2) == want


def test_configs_mirror_as_named():
    assert {name: sorted(mirror_rows(config).items())
            for name, config in {**MIRRORED, **FALLBACK}.items()} == {
        "odd_width": [(2, 1), (3, 0)],
        "odd_height": [(2, 0)],
        "partial": [(5, 4), (6, 3), (7, 2), (8, 1), (9, 0)],
        "raw": [(2, 1), (3, 0)],
        "omega": [(2, 1), (3, 0)],
        "complex_fixed": [],
        "off_axis": []}
    assert unmirrored(MIRRORED["raw"])[1] > 0


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_fallback_decides_every_pixel(monkeypatch, name):
    config = FALLBACK[name]
    calls = counting(monkeypatch)
    render_slice(config, workers=1)
    w, h = config.px
    assert sorted(calls) == [(c, r) for c in range(w) for r in range(h)]


def test_frozen_slice_decides_half_its_pixels(monkeypatch):
    config = SliceConfig.from_json(SLICE_DOC)
    calls = counting(monkeypatch)
    render_slice(config, workers=1)
    assert len(calls) == 128
    assert {r for _, r in calls} == set(range(8))


def test_a_solve_mode_ignores_its_placeholder_d(monkeypatch):
    """A solve mode recomputes d at every pixel, so a complex placeholder
    d leaves the config real: it decides h//2 fewer rows and renders the
    bytes of the same config with a real placeholder."""
    real = small(px=[4, 6])
    placeholder = small(px=[4, 6], fixed=dict(SLICE_DOC["fixed"], d=[1, 2]))
    assert real.mode == placeholder.mode == "solve_minus"
    want = render_slice(real, workers=1)
    assert render_slice(placeholder, workers=2) == want
    calls = counting(monkeypatch)
    assert render_slice(placeholder, workers=1) == want
    assert sorted(calls) == [(c, r) for c in range(4) for r in range(3)]


# Real windows (centre, width, height) whose offsets round at most sizes.
REAL_WINDOWS = [(0, 12.0, 12.0), (0.5, 7.1, 0.3), (-1.25, 1e-3, 3.7)]


def bits(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("window", REAL_WINDOWS)
def test_every_real_height_mirrors_every_pair(window):
    center, width, height = window
    for h in range(1, 65):
        config = small(px=[7, h], center=center, width=width, height=height)
        assert mirror_rows(config) == {h - 1 - r: r for r in range(h // 2)}
        for r in range(h // 2):
            for col in (0, 3, 6):
                assert bits(pixel_value(config, col, h - 1 - r)) == \
                    bits(pixel_value(config, col, r).conjugate())


@pytest.mark.parametrize("window", REAL_WINDOWS + [([0.75, -2.5], 5.0, 0.7)])
def test_power_of_two_centres_are_the_half_offset_centres(window):
    """At power-of-two sizes every offset is exact, so the centres are
    the ones ``center + ((k + 0.5) / n - 0.5) * size`` gives, and the
    frozen slice keeps its bytes."""
    center, width, height = window
    for n in (1, 2, 4, 16, 64):
        config = small(px=[n, n], center=center, width=width, height=height)
        c = config.center
        for k in range(n):
            want = complex(c.real + ((k + 0.5) / n - 0.5) * width,
                           c.imag + (0.5 - (k + 0.5) / n) * height)
            assert bits(pixel_value(config, k, k)) == bits(want)
    frozen = SliceConfig.from_json(SLICE_DOC)
    assert pixel_value(frozen, 0, 0) == -5.625 + 5.625j
    assert pixel_value(frozen, 15, 15) == 5.625 - 5.625j
    assert pixel_value(frozen, 7, 8) == -0.375 - 0.375j
