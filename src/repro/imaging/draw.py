"""Primitive rasterizers used by the synthetic-world renderer."""

from __future__ import annotations

import numpy as np


def fill_rect(field: np.ndarray, x: int, y: int, width: int, height: int, value: float) -> None:
    """Fill an axis-aligned rectangle, clipped to the field."""
    h, w = field.shape
    x0, y0 = max(0, x), max(0, y)
    x1, y1 = min(w, x + width), min(h, y + height)
    if x0 < x1 and y0 < y1:
        field[y0:y1, x0:x1] = value


def fill_disk(field: np.ndarray, cx: float, cy: float, radius: float, value: float) -> None:
    """Fill a disk, clipped to the field."""
    h, w = field.shape
    x0 = max(0, int(np.floor(cx - radius)))
    x1 = min(w, int(np.ceil(cx + radius)) + 1)
    y0 = max(0, int(np.floor(cy - radius)))
    y1 = min(h, int(np.ceil(cy + radius)) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    dx2 = (np.arange(x0, x1) - cx) ** 2
    dy2 = (np.arange(y0, y1) - cy) ** 2
    mask = dx2[np.newaxis, :] + dy2[:, np.newaxis] <= radius**2
    field[y0:y1, x0:x1][mask] = value


def draw_line(
    field: np.ndarray,
    x0: float,
    y0: float,
    x1: float,
    y1: float,
    value: float,
    thickness: int = 1,
) -> None:
    """Draw a straight line by dense sampling (adequate for world textures).

    Each of the ~2 samples per pixel of length stamps the
    ``(2 * (thickness // 2) + 1)``-pixel square around its truncated
    position, clipped to the field.  Every stamped pixel gets the same
    value, so all squares are written in one scatter.
    """
    length = float(np.hypot(x1 - x0, y1 - y0))
    steps = max(2, int(length * 2))
    ts = np.linspace(0.0, 1.0, steps)
    # astype truncates toward zero, as int() does on each sample.
    px = (x0 + ts * (x1 - x0)).astype(np.intp)
    py = (y0 + ts * (y1 - y0)).astype(np.intp)
    half = max(0, thickness // 2)
    offsets = np.arange(-half, half + 1)
    h, w = field.shape
    cols = (px[:, np.newaxis] + offsets)[:, np.newaxis, :]
    rows = (py[:, np.newaxis] + offsets)[:, :, np.newaxis]
    cols, rows = np.broadcast_arrays(cols, rows)
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    field[rows[inside], cols[inside]] = value
