"""Procedural aerial landscape generation.

The VIRAT aerial videos are not redistributable, so the inputs are
rendered from a synthetic landscape: multi-octave value noise for ground
texture, plus roads, buildings and field boundaries that give the FAST
detector the corner structure real aerial imagery has.

The full-size float passes run in place, in blocks of output rows, so
a render holds one float field and block-sized temporaries: the same
elementwise arithmetic and generator stream as whole-field passes, so
the same bytes.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.imaging.draw import draw_line, fill_disk, fill_rect
from repro.imaging.image import saturate_cast_u8

#: Output rows per block of a full-size float pass.
BLOCK_ROWS = 64


def _row_blocks(height: int) -> Iterator[slice]:
    """The row slices of a ``height``-row field, ``BLOCK_ROWS`` at a time."""
    return (slice(top, min(top + BLOCK_ROWS, height)) for top in range(0, height, BLOCK_ROWS))


def value_noise(
    rng: np.random.Generator,
    height: int,
    width: int,
    octaves: int = 4,
    base_cells: int = 8,
    persistence: float = 0.55,
) -> np.ndarray:
    """Multi-octave value noise in [0, 1] of shape ``(height, width)``."""
    field = np.zeros((height, width), dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    for octave in range(octaves):
        cells = base_cells * (2**octave)
        grid = rng.random((cells + 1, cells + 1))
        for rows, values in _upsampled_blocks(grid, height, width):
            values *= amplitude
            field[rows] += values
        total += amplitude
        amplitude *= persistence
    field /= total
    return field


def _bilinear_upsample(grid: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinearly stretch a coarse grid to ``(height, width)``."""
    out = np.empty((height, width), dtype=np.float64)
    for rows, values in _upsampled_blocks(grid, height, width):
        out[rows] = values
    return out


def _upsampled_blocks(
    grid: np.ndarray, height: int, width: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """``grid`` bilinearly stretched to ``(height, width)``, one row block at a time.

    Separable: every coarse row is interpolated along x once, and the
    output rows gather those — the same elementwise arithmetic as
    interpolating each output row from its four corner samples.  Each
    yielded block is a fresh array.
    """
    gh, gw = grid.shape
    ys = np.linspace(0, gh - 1, height)
    xs = np.linspace(0, gw - 1, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, np.newaxis]
    fx = xs - x0
    along_x = grid[:, x0] * (1 - fx) + grid[:, x1] * fx
    for rows in _row_blocks(height):
        values = along_x[y0[rows]]
        values *= 1 - fy[rows]
        below = along_x[y1[rows]]
        below *= fy[rows]
        values += below
        yield rows, values


def make_landscape(seed: int, height: int = 900, width: int = 1200) -> np.ndarray:
    """Render a synthetic aerial landscape as a grayscale uint8 image.

    The landscape mixes smooth terrain, a road network, building blocks
    and scattered circular features (tanks, trees) so that every local
    neighbourhood carries enough corners and texture for feature
    matching.
    """
    rng = np.random.default_rng(seed)
    field = value_noise(rng, height, width)
    field *= 120.0
    field += 60.0
    area = height * width

    # Field boundaries: large rectangles with slightly different tones.
    for _ in range(24):
        x = int(rng.integers(0, width))
        y = int(rng.integers(0, height))
        w = int(rng.integers(width // 12, width // 4))
        h = int(rng.integers(height // 12, height // 4))
        tone = float(rng.uniform(70, 190))
        patch = field[y : y + h, x : x + w]
        if patch.size:
            patch += 0.35 * (tone - patch)

    # Road network: a loose grid plus diagonals.
    for _ in range(28):
        if rng.random() < 0.5:
            y0 = float(rng.uniform(0, height))
            y1 = y0 + float(rng.uniform(-height / 4, height / 4))
            draw_line(field, 0, y0, width - 1, y1, value=rng.uniform(30, 50), thickness=3)
        else:
            x0 = float(rng.uniform(0, width))
            x1 = x0 + float(rng.uniform(-width / 4, width / 4))
            draw_line(field, x0, 0, x1, height - 1, value=rng.uniform(30, 50), thickness=3)

    # Building blocks: bright rectangles with darker shadows.  Density is
    # tied to area so every camera window sees a healthy corner budget.
    for _ in range(max(1, area // 320)):
        x = int(rng.integers(0, width - 14))
        y = int(rng.integers(0, height - 14))
        w = int(rng.integers(3, 12))
        h = int(rng.integers(3, 12))
        tone = float(rng.uniform(150, 245)) if rng.random() < 0.7 else float(rng.uniform(15, 60))
        fill_rect(field, x, y, w, h, tone)
        fill_rect(field, x + w, y + 1, 2, h, tone * 0.35)

    # Scattered disks: vegetation / vehicles.
    for _ in range(max(1, area // 250)):
        cx = float(rng.uniform(0, width))
        cy = float(rng.uniform(0, height))
        radius = float(rng.uniform(1.0, 3.5))
        fill_disk(field, cx, cy, radius, float(rng.uniform(20, 230)))

    # Dense fine-scale corner dots: every frame-sized window should carry
    # a healthy FAST corner budget even in open terrain.
    for _ in range(max(1, area // 90)):
        cx = int(rng.integers(1, width - 2))
        cy = int(rng.integers(1, height - 2))
        tone = float(rng.uniform(0, 255))
        size = int(rng.integers(1, 3))
        fill_rect(field, cx, cy, size, size, tone)

    # Fine sensor-scale texture so flat regions still carry gradient.
    image = np.empty(field.shape, dtype=np.uint8)
    for rows in _row_blocks(height):
        block = field[rows]
        block += rng.normal(0.0, 3.0, size=block.shape)
        image[rows] = saturate_cast_u8(block)
    return image
