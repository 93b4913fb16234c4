"""Deterministic slice rendering to binary PPM.

A slice fixes six of the seven trace coordinates, sweeps the seventh
over a rectangular window, and paints each pixel from its verdict:
``point_coords`` makes the pixel's point and its boundary once,
``classify_pixel`` decides that point with ``decide_bq`` and measures
its vertex-relation residual by ``check``'s rule (``residual_modulus``),
and ``pixel_rgb``, the one palette rule, maps the verdict to a colour.
Pixels are pure functions of the config, and the output buffer is
assembled by pixel index, so the bytes are identical for any count of
forked workers.  A real slice is its own complex conjugate, so each
conjugate pair of rows is decided once (``mirror_rows``).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

from ._record import Frozen, require_finite
from .algebra import (BoundaryData, CharacterPoint, MarkoffQuad, RootChoice,
                      residual_modulus, solve_fourth)
from .bq import BqParams, BqVerdict, Status, WitnessKind, decide_bq
from .markoff import MarkoffMap

COORDS = CharacterPoint._fields

# The BqParams fields a config's "budgets" may set.
BUDGETS = [f for f in BqParams._fields if f.startswith("max_")]


class SliceConfig(Frozen):
    """A slice: the six fixed coordinates, the varying one swept over a
    width x height window about center at px pixels, the decision's
    params, and the mode (raw, or d solved at every pixel).  A plain
    value: each pixel's point and boundary come from ``point_coords``."""

    _fields = ("fixed", "varying", "center", "width", "height", "px",
               "params", "mode")
    __slots__ = _fields

    def __init__(self, fixed: Dict[str, complex], varying: str,
                 center: complex, width: float, height: float,
                 px: Tuple[int, int],                 # (W, H)
                 params: BqParams = BqParams(),
                 mode: str = "raw"):          # raw | solve_plus | solve_minus
        if varying not in COORDS:
            raise ValueError("unknown varying coordinate %r" % varying)
        if sorted(fixed) != sorted(c for c in COORDS if c != varying):
            raise ValueError("fixed must contain the six other coordinates")
        require_finite(center, *fixed.values())
        if px[0] < 1 or px[1] < 1:
            raise ValueError("resolution must be at least 1x1")
        if not 0 < width <= sys.float_info.max >= height > 0:   # not NaN
            raise ValueError("window must have positive finite size")
        if mode not in ("raw", "solve_plus", "solve_minus"):
            raise ValueError("unknown mode %r" % mode)
        if mode != "raw" and varying == "d":     # solving would overwrite it
            raise ValueError("mode %s solves for d, so d cannot vary" % mode)
        self._set(fixed, varying, center, width, height, px, params, mode)

    @classmethod
    def from_json(cls, doc: dict) -> "SliceConfig":
        def num(v, kind=float):        # bool is an int, not a number here
            # An int compares with a float exactly, unconverted; NaN never.
            if type(v) is not bool and isinstance(v, (int, kind)) \
                    and abs(v) <= sys.float_info.max:
                return kind(v)
            raise ValueError("want a finite %s, got %r" % (kind.__name__, v))

        def pair(v, kind=float) -> tuple:
            if isinstance(v, list) and len(v) == 2:
                return tuple(num(x, kind) for x in v)
            raise ValueError("want a pair of two numbers, got %r" % (v,))

        def cx(v) -> complex:          # a real number v is the pair [v, 0]
            return complex(*pair(v if isinstance(v, list) else [v, 0]))
        if not (isinstance(doc, dict) and isinstance(doc.get("fixed"), dict)):
            raise ValueError("the config and its fixed must be JSON objects")
        budgets = doc.get("budgets", {})       # BqParams checks the values
        if not isinstance(budgets, dict) or any(k not in BUDGETS
                                                for k in budgets):
            raise ValueError("budgets must be an object of %s"
                             % ", ".join(BUDGETS))
        params = BqParams(K=doc.get("k_override"), **budgets)
        px = doc["px"]
        px = pair(px if isinstance(px, list) else [px, px], int)
        return cls(fixed={k: cx(v) for k, v in doc["fixed"].items()},
                   varying=doc["varying"],
                   center=cx(doc["center"]),
                   width=num(doc["width"]),
                   height=num(doc["height"]),
                   px=px,
                   params=params,
                   mode=doc.get("mode", "raw"))


def pixel_value(config: SliceConfig, col: int, row: int) -> complex:
    # offsets odd in the index about the middle: row h-1-r's is exactly
    # minus row r's
    w, h = config.px
    re = config.center.real + ((2 * col + 1 - w) / (2 * w)) * config.width
    im = config.center.imag + ((h - 1 - 2 * row) / (2 * h)) * config.height
    return complex(re, im)


def point_coords(config: SliceConfig, value: complex
                 ) -> Tuple[Dict[str, complex], BoundaryData]:
    """The point whose varying coordinate is value: its coordinates and
    the one ``BoundaryData`` of its own x, y and z, from which a solve
    mode solves d."""
    coords = dict(config.fixed)
    coords[config.varying] = value
    boundary = BoundaryData((coords["x"], coords["y"], coords["z"]))
    if config.mode != "raw":
        which = RootChoice.PLUS if config.mode == "solve_plus" \
            else RootChoice.MINUS
        coords["d"] = solve_fourth(coords["a"], coords["b"], coords["c"],
                                   boundary, which)
    return coords, boundary


def classify_pixel(config: SliceConfig, col: int, row: int
                   ) -> Tuple[BqVerdict, float]:
    """The verdict at pixel (col, row) and its ``residual_modulus``, both
    read from the quad and boundary of ``point_coords``."""
    coords, boundary = point_coords(config, pixel_value(config, col, row))
    values = (coords["a"], coords["b"], coords["c"], coords["d"])
    quad = MarkoffQuad(values, boundary, on_variety=False)
    return (decide_bq(MarkoffMap(quad), config.params),
            residual_modulus(values, boundary))


def pixel_rgb(v: BqVerdict) -> Tuple[int, int, int]:
    """Black InBQ, white Undecided; a NotBQ pixel by its witness kind:
    blue band, green sigma, red arc, and band and arc darken with the
    steps spent."""
    if v.status is Status.IN_BQ:
        return (0, 0, 0)
    if v.status is Status.UNDECIDED:
        return (255, 255, 255)
    shade = 255 - min(191, v.steps_used)
    if v.witness.kind is WitnessKind.BQ1_VIOLATION:
        return (0, 0, shade)
    if v.witness.kind is WitnessKind.SIGMA_ZERO:
        return (0, 255, 0)
    return (shade, 0, 0)


def _render_rows(config: SliceConfig, row: int) -> Tuple[bytes, float]:
    """One row's pixel bytes and its worst residual: one worker task."""
    buf = bytearray()
    worst = 0.0
    for col in range(config.px[0]):
        verdict, residual = classify_pixel(config, col, row)
        buf.extend(pixel_rgb(verdict))
        worst = max(worst, residual)
    return bytes(buf), worst


def mirror_rows(config: SliceConfig) -> Dict[int, int]:
    """{h-1-r: r} for each row r < h//2 of a real config: the centre and
    every fixed value a pixel reads are real.  A solve mode recomputes d
    at every pixel, so its fixed d is a placeholder and is not read.

    ``pixel_value`` puts row h-1-r at the exact conjugates of row r's
    values.  Complex conjugation commutes with the mapping class group
    action and, bit for bit, with every operation of the decision (+, -,
    *, complex division, abs, hypot and cmath.sqrt; no branch reads the
    sign of an imaginary part), so the mirror row has row r's verdicts
    and residuals."""
    read = [v for c, v in config.fixed.items()
            if c != "d" or config.mode == "raw"]
    if config.center.imag or any(v.imag for v in read):
        return {}
    h = config.px[1]
    return {h - 1 - r: r for r in range(h // 2)}


def render_slice(config: SliceConfig, workers: int = 1
                 ) -> Tuple[bytes, float]:
    """Pixel bytes (without header) and the worst vertex-relation
    residual seen over the window.  Each row to decide is one task, of
    ``_render_rows``, run by ``_fork_rows`` past one worker where
    ``os.fork`` exists.  The parent decides no row, so a traced run's
    worker tasks hold all the work.  A row of ``mirror_rows`` copies its
    partner's bytes, so each conjugate pair of rows is decided once."""
    h = config.px[1]
    mirror = mirror_rows(config)
    rows = [row for row in range(h) if row not in mirror]
    workers = min(workers, len(rows))     # fork no child without a row
    if workers > 1 and hasattr(os, "fork"):
        decided = _fork_rows(config, rows, workers)
    else:
        decided = {row: _render_rows(config, row) for row in rows}
    body = b"".join(decided[mirror.get(i, i)][0] for i in range(h))
    return body, max(worst for _, worst in decided.values())


def _fork_rows(config: SliceConfig, rows: List[int], workers: int
               ) -> Dict[int, Tuple[bytes, float]]:
    """Each row's ``_render_rows`` from forked children.  A free child
    takes the next row number off one shared pipe and pickles (row,
    result), or its exception, to its own pipe.  One loop feeds and
    drains the pipes, so none stalls; all children are reaped first."""
    import io
    import pickle
    import selectors
    # 8-byte row records, in writes of 512 bytes, atomic by POSIX's PIPE_BUF
    todo = memoryview(b"".join(row.to_bytes(8, "little") for row in rows))
    rows_r, rows_w = os.pipe()
    fds, pids, received = [rows_r, rows_w], [], {}
    with selectors.DefaultSelector() as sel:
        try:
            for _ in range(workers):
                out_r, out_w = os.pipe()
                fds += out_r, out_w
                pids.append(os.fork())
                if pids[-1] == 0:
                    try:
                        for fd in fds[1:-1]:    # rows_w, all read ends
                            os.close(fd)
                        with open(out_w, "wb") as out:
                            try:
                                while record := os.read(rows_r, 8):
                                    row = int.from_bytes(record, "little")
                                    got = _render_rows(config, row)
                                    pickle.dump((row, got), out)
                            except Exception as exc:
                                pickle.dump((None, exc), out)
                    finally:
                        os._exit(0)
                os.close(fds.pop())
                received[out_r] = bytearray()
                sel.register(out_r, selectors.EVENT_READ)
            os.set_blocking(rows_w, False)
            sel.register(rows_w, selectors.EVENT_WRITE)
            # rows_r stays open, so no write fails once every child left
            while len(sel.get_map()) > (rows_w in sel.get_map()):
                for key, _ in sel.select():
                    if key.fd == rows_w:
                        todo = todo[os.write(rows_w, todo[:512]):]
                        if not todo:
                            sel.unregister(rows_w)
                            os.close(fds.pop(1))        # rows_w
                    elif chunk := os.read(key.fd, 1 << 16):
                        received[key.fd] += chunk
                    else:
                        sel.unregister(key.fd)
        finally:
            for fd in fds:
                os.close(fd)
            for pid in pids:
                os.waitpid(pid, 0)
    decided = {}
    for data in map(io.BytesIO, received.values()):
        while data.tell() < len(data.getbuffer()):
            row, got = pickle.load(data)
            if row is None:
                raise got
            decided[row] = got
    return decided


def write_ppm(path: str, config: SliceConfig, body: bytes) -> None:
    w, h = config.px
    if len(body) != 3 * w * h:
        raise ValueError("body has %d bytes, want 3 * %d * %d"
                         % (len(body), w, h))
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(body)


def render_to_file(config: SliceConfig, out_path: str,
                   workers: int = 1) -> float:
    body, worst = render_slice(config, workers)
    write_ppm(out_path, config, body)
    if config.mode == "raw":
        with open(out_path + ".report.txt", "w") as fh:
            fh.write("max |vertex relation residual| over window: %g\n"
                     % worst)
    return worst


def load_config(path: str) -> SliceConfig:
    with open(path) as fh:
        return SliceConfig.from_json(json.load(fh))
