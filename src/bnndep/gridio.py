"""CSV, SVG and JSON serialization.

Reals are printed with 17 significant digits so a written grid re-parses
bit-exactly.  The SVG is self-contained (one rectangle per cell, no
external assets) and byte-deterministic for a given grid.  Every JSON
document the package writes goes through one encoder, ``_json_text``.
"""

from __future__ import annotations

import dataclasses
import json
from numbers import Real
from typing import Optional

import numpy as np

from .estimators import DeltaGrid
from .network import _finite

_CSV_HEADER = "z1,z2,delta,std_error,n"

# diverging anchors: blue for negative, white at zero, red for positive
_NEG = np.array([33, 102, 172])
_MID = np.array([255, 255, 255])
_POS = np.array([178, 24, 43])
_HEX = np.array([f"{i:02x}" for i in range(256)], dtype=object)


def _json_default(obj):
    """JSON form of what ``json`` cannot encode: a dataclass as its fields, numpy as lists."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """The package's one JSON writer: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def grid_csv_text(grid: DeltaGrid) -> str:
    """CSV document: one row per cell, z1-major ascending."""
    z2_text = [_fmt(z) + "," for z in grid.z2_values]
    tail = f",{grid.n}\n"
    rows = [_CSV_HEADER + "\n"]
    for z1, values, errors in zip(grid.z1_values, grid.value.tolist(), grid.std_error.tolist()):
        head = _fmt(z1) + ","
        rows += [head + z2 + _fmt(v) + "," + _fmt(e) + tail
                 for z2, v, e in zip(z2_text, values, errors)]
    return "".join(rows)


def write_grid_csv(grid: DeltaGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(grid_csv_text(grid))


def parse_grid_csv(text: str) -> DeltaGrid:
    """Rebuild a grid from its CSV form; exact inverse of grid_csv_text.

    The tail label is not stored in the CSV, so the parsed grid carries
    the default.
    """
    lines = text.strip().split("\n")
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise ValueError("no data rows")
    if any(len(r) != 5 for r in rows):
        raise ValueError("every data row needs five fields")
    z1 = sorted({float(r[0]) for r in rows})
    z2 = sorted({float(r[1]) for r in rows})
    g1, g2 = len(z1), len(z2)
    if len(rows) != g1 * g2 or not _finite(z1, z2):
        raise ValueError("rows do not fill a grid of finite thresholds")
    value = np.empty((g1, g2))
    se = np.empty((g1, g2))
    n = int(rows[0][4])
    index1 = {v: i for i, v in enumerate(z1)}
    index2 = {v: i for i, v in enumerate(z2)}
    cells = set()
    for r in rows:
        if int(r[4]) != n:
            raise ValueError("rows disagree on n")
        a, b = index1[float(r[0])], index2[float(r[1])]
        cells.add((a, b))
        value[a, b] = float(r[2])
        se[a, b] = float(r[3])
    # g1 * g2 rows cover every cell unless one is repeated
    if len(cells) != g1 * g2:
        raise ValueError("duplicate or missing (z1, z2) cells")
    if not _finite(value, se):
        raise ValueError("delta and std_error must be finite")
    return DeltaGrid(np.array(z1), np.array(z2), value, se, n)


def read_grid_csv(path) -> DeltaGrid:
    with open(path) as fh:
        return parse_grid_csv(fh.read())


def _check_color_limit(limit) -> None:
    # numpy scalars are Real; bool is an int but no colour limit
    if limit is not None and not (isinstance(limit, Real) and not isinstance(limit, bool)
                                  and _finite(limit) and limit >= 0):
        raise ValueError(f"color_limit must be a finite number >= 0, got {limit!r}")


def heatmap_svg_text(grid: DeltaGrid, color_limit: Optional[float] = None) -> str:
    """Self-contained SVG heatmap of the grid.

    White is pinned at zero and the color limits are symmetric at the
    grid's max absolute value unless ``color_limit`` pins a shared scale.
    """
    if not _finite(grid.value):
        raise ValueError("heatmap values must be finite")
    _check_color_limit(color_limit)
    g1, g2 = grid.value.shape
    limit = color_limit if color_limit is not None else float(np.abs(grid.value).max())
    plot = 420.0
    left, top, right, bottom = 58.0, 16.0, 16.0, 48.0
    width = left + plot + right
    height = top + plot + bottom
    cw, ch = plot / g1, plot / g2

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>\n',
    ]
    # each cell divides as float(value) / limit would (in float32 for a float32 limit), and
    # np.rint rounds half to even, as the built-in round() does, so colours keep their bytes
    t = (np.clip(np.divide(grid.value, limit, dtype=np.result_type(1.0, limit)), -1.0, 1.0)
         .astype(float) if limit > 0 else np.zeros((g1, g2)))
    anchor = np.where((t >= 0)[..., None], _POS, _NEG)
    hexes = _HEX[np.rint(_MID + np.abs(t)[..., None] * (anchor - _MID)).astype(int)]
    colors = (hexes[..., 0] + hexes[..., 1] + hexes[..., 2]).tolist()
    x_text = [f'<rect x="{left + a * cw:.2f}" y="' for a in range(g1)]
    size = f'" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="#'
    y_text = [f"{top + (g2 - 1 - b) * ch:.2f}" + size for b in range(g2)]  # z2 increases upward
    for x, row in zip(x_text, colors):
        parts += [x + y + c + '"/>\n' for y, c in zip(y_text, row)]
    style = 'font-family="sans-serif" font-size="13" fill="#000000"'
    ticks1 = [(0, grid.z1_values[0]), (g1 - 1, grid.z1_values[-1])]
    ticks2 = [(0, grid.z2_values[0]), (g2 - 1, grid.z2_values[-1])]
    for a, val in ticks1:
        x = left + (a + 0.5) * cw
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot + 18:.2f}" text-anchor="middle" '
            f'{style}>{val:.2g}</text>\n'
        )
    for b, val in ticks2:
        y = top + (g2 - 0.5 - b) * ch
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'{style}>{val:.2g}</text>\n'
        )
    parts.append(
        f'<text x="{left + plot / 2:.2f}" y="{height - 10:.2f}" '
        f'text-anchor="middle" {style}>z1</text>\n'
    )
    parts.append(
        f'<text x="16" y="{top + plot / 2:.2f}" text-anchor="middle" {style} '
        f'transform="rotate(-90 16 {top + plot / 2:.2f})">z2</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_heatmap(grid: DeltaGrid, path, color_limit: Optional[float] = None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(heatmap_svg_text(grid, color_limit))
