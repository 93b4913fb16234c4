"""A real slice is rendered once per conjugate pair of rows.

Each config renders at 1 and 2 workers to the bytes and worst residual
of deciding every row, ``_render_rows`` over all of them in row order.
A config with a complex fixed coordinate or an off-axis centre decides
every pixel, and the frozen 16x16 slice decides half of them.
"""

import pytest

from bqdomain import render
from bqdomain.render import (SliceConfig, _render_rows, mirror_rows,
                             render_slice)

from conftest import SLICE_DOC


def small(**over):
    doc = dict(SLICE_DOC, px=[4, 4], budgets={"max_faces": 64})
    doc.update(over)
    return SliceConfig.from_json(doc)


MIRRORED = {
    "odd_width": small(px=[5, 4]),
    # the only odd height whose pair of row centres is a bitwise mirror
    "odd_height": small(px=[4, 3]),
    # 3 of the 5 pairs of row centres are bitwise mirrors
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
    rows = _render_rows((config, list(range(config.px[1]))))
    return (b"".join(buf for _, buf, _ in rows),
            max(worst for _, _, worst in rows))


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
        "partial": [(6, 3), (7, 2), (8, 1)],
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
