"""Minimal deterministic SVG emission for heatmaps.

The rendering is a pure function of the matrix contents: fixed palette, fixed
layout, no timestamps, so re-rendering identical data yields identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._io import write_atomic

# dark-to-light anchor colors, interpolated linearly in RGB
_PALETTE = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)


def _color(value: float) -> str:
    v = min(max(value, 0.0), 1.0) * (len(_PALETTE) - 1)
    i = min(int(v), len(_PALETTE) - 2)
    frac = v - i
    rgb = tuple(
        int(round((1 - frac) * a + frac * b)) for a, b in zip(_PALETTE[i], _PALETTE[i + 1])
    )
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def write_heatmap_svg(matrix: np.ndarray, path: str | Path, cell_px: int = 10) -> None:
    """Render a matrix as a colored cell grid, low values dark, high bright.

    Row 0 is drawn at the bottom so matrices indexed as (y, x) keep their
    mathematical orientation. The file is replaced atomically.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("heatmap matrix must be 2-D")
    rows, cols = matrix.shape
    lo, hi = float(matrix.min()), float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell_px}" '
        f'height="{rows * cell_px}" shape-rendering="crispEdges">'
    ]
    for r in range(rows):
        y = (rows - 1 - r) * cell_px
        for c in range(cols):
            color = _color((matrix[r, c] - lo) / span)
            parts.append(
                f'<rect x="{c * cell_px}" y="{y}" width="{cell_px}" '
                f'height="{cell_px}" fill="{color}"/>'
            )
    parts.append("</svg>")
    write_atomic(path, ("\n".join(parts) + "\n").encode())
