"""Perspective/affine warping — the pipeline's hot function.

This is the analog of OpenCV's ``WarpPerspective`` ->
``warpPerspectiveInvoker`` -> ``remapBilinear`` chain, which the paper
identifies as 54.4% of the VS application's execution time (Fig. 8) and
uses for its hot-function case study (Section V-C).

The kernel processes the destination region in row blocks.  Each block:

1. exposes its live register state at a checkpoint (pointers to the
   source, destination and coverage buffers; the loop counter and bound;
   the inverse transform held in floating-point registers),
2. inversely maps destination coordinates into the source frame
   (*warpPerspectiveInvoker*),
3. gathers source pixels with bilinear interpolation (*remapBilinear*),
4. exposes the floating-point pixel accumulator at a second checkpoint,
5. saturates to uint8 and stores into the destination.

Out-of-range stores caused by corrupted loop state raise
:class:`~repro.runtime.errors.SegmentationFault`, modelling a run off the
end of the destination buffer.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.imaging.geometry import invert_transform, projected_bounds, validate_homography
from repro.imaging.image import as_gray, blank, saturate_cast_u8
from repro.perfmodel.cost import kernel_cost
from repro.runtime.context import Cell, ExecutionContext
from repro.runtime.errors import SegmentationFault

#: Rows processed per block (one checkpoint pair per block).
BLOCK_ROWS = 16

#: |w| below this is treated as a point at infinity and masked out.
_MIN_HOMOGENEOUS_W = 1e-9


def warp_into(
    canvas: np.ndarray,
    coverage: np.ndarray,
    src: np.ndarray,
    transform: np.ndarray,
    ctx: ExecutionContext,
    block_rows: int = BLOCK_ROWS,
) -> int:
    """Warp grayscale ``src`` through ``transform`` into ``canvas``.

    ``transform`` maps source pixel coordinates to canvas coordinates.
    ``coverage`` is a uint8 mask of the same shape as ``canvas``; pixels
    written by this call are set to 255.  Returns the number of pixels
    written.
    """
    with telemetry.span("imaging.warp", ctx=ctx):
        return _warp_into(canvas, coverage, src, transform, ctx, block_rows)


def _warp_into(
    canvas: np.ndarray,
    coverage: np.ndarray,
    src: np.ndarray,
    transform: np.ndarray,
    ctx: ExecutionContext,
    block_rows: int,
) -> int:
    canvas = as_gray(canvas)
    coverage = as_gray(coverage)
    if canvas.shape != coverage.shape:
        raise ValueError(f"canvas {canvas.shape} and coverage {coverage.shape} differ")
    src = as_gray(src)

    (x_lo, y_lo, x_hi, y_hi), inv = warp_geometry(transform, src.shape, canvas.shape)
    if x_lo >= x_hi or y_lo >= y_hi:
        return 0

    src_f = src.astype(np.float64)
    inv_live = inv.copy()  # the FP registers the transform lives in
    row = Cell(y_lo)
    row_end = Cell(y_hi)
    col_lo = Cell(x_lo)
    col_hi = Cell(x_hi)

    written = 0
    while row.value < row_end.value:
        block_written, next_row = _warp_block(
            canvas,
            coverage,
            src_f,
            inv_live,
            row,
            row_end,
            col_lo,
            col_hi,
            block_rows,
            ctx,
        )
        written += block_written
        row.value = next_row

    return written


def _warp_block(
    canvas: np.ndarray,
    coverage: np.ndarray,
    src_f: np.ndarray,
    inv_live: np.ndarray,
    row: Cell,
    row_end: Cell,
    col_lo: Cell,
    col_hi: Cell,
    block_rows: int,
    ctx: ExecutionContext,
) -> tuple[int, int]:
    """Process one row block; returns ``(pixels_written, next_row)``."""
    canvas_h, canvas_w = canvas.shape

    row_hint = int(row.value)  # pointer value before the checkpoint
    window = ctx.window("imaging.warp.row_block")
    if window is not None:
        from repro.faultinject.registers import Role

        window.gpr_address("src_ptr", src_f, byte_offset=0, window=min(4096, src_f.nbytes))
        window.gpr_address(
            "dst_ptr",
            canvas,
            byte_offset=row_hint * canvas_w,
            writes=True,
            window=min(256, canvas.nbytes),
        )
        window.gpr_address(
            "cov_ptr",
            coverage,
            byte_offset=row_hint * canvas_w,
            writes=True,
            window=min(256, coverage.nbytes),
        )
        window.gpr_cell("row_ctr", row, role=Role.CONTROL)
        window.gpr_cell("row_end", row_end, role=Role.CONTROL)
        window.gpr_cell("col_lo", col_lo, role=Role.DATA)
        window.gpr_cell("col_hi", col_hi, role=Role.DATA)
        window.fpr_array("inv_mat", inv_live, ttl=20_000)
        ctx.checkpoint(window)

    # Loop state is re-read *after* the checkpoint so that a register
    # flip on it steers this block (and the loop) like a real machine.
    r0 = int(row.value)
    r1 = min(r0 + block_rows, int(row_end.value))
    x_lo = int(col_lo.value)
    x_hi = int(col_hi.value)
    # A corrupted range that escapes the canvas is a wild store.
    if x_lo < 0 or x_hi > canvas_w or r0 < 0 or r1 > canvas_h:
        raise SegmentationFault(r0 * canvas_w + x_lo, "warp store outside destination")
    if x_lo >= x_hi or r0 >= r1:
        return 0, max(r1, r0 + block_rows)

    block_h = r1 - r0
    block_w = x_hi - x_lo
    n_px = block_h * block_w

    with ctx.scope("imaging.warp.warp_perspective_invoker"):
        ctx.tick(kernel_cost("warp.px") * n_px)
        xs = np.arange(x_lo, x_hi, dtype=np.float64)
        ys = np.arange(r0, r1, dtype=np.float64)
        grid_x, grid_y = np.meshgrid(xs, ys)
        sx, sy, valid = _inverse_map(inv_live, grid_x, grid_y, src_f.shape)

    if not np.any(valid):
        return 0, r1

    with ctx.scope("imaging.warp.remap_bilinear"):
        ctx.tick(kernel_cost("warp.remap_px") * n_px)
        values = _remap_bilinear(src_f, sx, sy, valid, ctx)

    window = ctx.window("imaging.warp.pixels")
    if window is not None:
        window.fpr_array("pix_acc", values)
        window.fpr_array("coef_x", sx)
        ctx.checkpoint(window)

    with ctx.scope("imaging.warp.warp_perspective_invoker"):
        ctx.tick(kernel_cost("warp.saturate_px") * n_px)
        stored = saturate_cast_u8(values[valid])

    # The store stream moves eight packed pixels per 64-bit register on
    # its way to memory; a flip corrupts one output pixel (which a
    # downstream stitch may later overwrite — the paper's compositional
    # masking).  Binding the packed view makes every one of the 64
    # register bits land in a real pixel.
    window = ctx.window("imaging.warp.store")
    if window is not None and stored.size >= 8:
        lanes = stored[: (stored.size // 8) * 8].view(np.uint64)
        window.gpr_array("store_px", lanes, ttl=60_000)
        ctx.checkpoint(window)

    with ctx.scope("imaging.warp.warp_perspective_invoker"):
        block = canvas[r0:r1, x_lo:x_hi]
        block[valid] = stored
        coverage[r0:r1, x_lo:x_hi][valid] = 255
    return int(np.count_nonzero(valid)), r1


#: A warp's ``(x_lo, y_lo, x_hi, y_hi)`` canvas box and its inverse transform.
WarpGeometry = tuple[tuple[int, int, int, int], np.ndarray]


def warp_geometry(
    transform: np.ndarray, src_shape: tuple[int, int], canvas_shape: tuple[int, int]
) -> WarpGeometry:
    """What :func:`warp_into` derives from ``transform`` before it warps anything.

    The canvas box a ``src_shape`` frame warped through ``transform``
    can reach, and the inverse transform that maps the box's pixels
    back into the frame.
    """
    mat = validate_homography(transform)
    inv = invert_transform(mat)
    return _extent(mat, src_shape, canvas_shape), inv


def warp_stores(
    geometry: WarpGeometry,
    src_shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Which canvas pixels ``(rows[k], cols[k])`` a clean warp stores into.

    True where :func:`warp_into` of a ``src_shape`` frame stores, given
    the warp's :func:`warp_geometry`: decided with the kernel's own
    extent and inverse map at just these pixels.  Every operation of
    the map is element-wise IEEE arithmetic, so a pixel gets the bits
    here that it gets in the kernel's row-block grid.
    """
    (x_lo, y_lo, x_hi, y_hi), inv = geometry
    inside = (rows >= y_lo) & (rows < y_hi) & (cols >= x_lo) & (cols < x_hi)
    _, _, valid = _inverse_map(inv, cols.astype(np.float64), rows.astype(np.float64), src_shape)
    return inside & valid


def _extent(
    mat: np.ndarray, src_shape: tuple[int, int], canvas_shape: tuple[int, int]
) -> tuple[int, int, int, int]:
    """``(x_lo, y_lo, x_hi, y_hi)``: the canvas box the warped frame can reach."""
    src_h, src_w = src_shape
    canvas_h, canvas_w = canvas_shape
    min_x, min_y, max_x, max_y = projected_bounds(mat, src_w, src_h)
    x_lo = max(0, int(np.floor(min_x)))
    y_lo = max(0, int(np.floor(min_y)))
    x_hi = min(canvas_w, int(np.ceil(max_x)) + 1)
    y_hi = min(canvas_h, int(np.ceil(max_y)) + 1)
    return x_lo, y_lo, x_hi, y_hi


def _inverse_map(
    inv: np.ndarray, grid_x: np.ndarray, grid_y: np.ndarray, src_shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source coordinates ``(sx, sy)`` of canvas pixels, and which are ``valid``."""
    src_h, src_w = src_shape
    denom = inv[2, 0] * grid_x + inv[2, 1] * grid_y + inv[2, 2]
    safe = np.abs(denom) > _MIN_HOMOGENEOUS_W
    denom = np.where(safe, denom, 1.0)
    sx = (inv[0, 0] * grid_x + inv[0, 1] * grid_y + inv[0, 2]) / denom
    sy = (inv[1, 0] * grid_x + inv[1, 1] * grid_y + inv[1, 2]) / denom
    valid = (
        safe
        & np.isfinite(sx)
        & np.isfinite(sy)
        & (sx >= 0.0)
        & (sx <= src_w - 1.0)
        & (sy >= 0.0)
        & (sy <= src_h - 1.0)
    )
    return sx, sy, valid


def _remap_bilinear(
    src_f: np.ndarray,
    sx: np.ndarray,
    sy: np.ndarray,
    valid: np.ndarray,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Bilinear gather from ``src_f`` at float coordinates (masked)."""
    src_h, src_w = src_f.shape
    cx = np.where(valid, sx, 0.0)
    cy = np.where(valid, sy, 0.0)
    x0 = np.floor(cx).astype(np.intp)
    y0 = np.floor(cy).astype(np.intp)

    # The gather-index registers: a flip makes one output pixel sample
    # the wrong source location.  Corrupted indices are clamped into the
    # image below, so the failure is wrong data, not a wild read (the
    # source pointer binding at the block checkpoint models that case).
    window = ctx.window("imaging.warp.gather") if ctx is not None else None
    if window is not None:
        window.gpr_array("gather_x", x0, ttl=60_000)
        window.gpr_array("gather_y", y0, ttl=60_000)
        ctx.checkpoint(window)
        np.clip(x0, 0, src_w - 1, out=x0)
        np.clip(y0, 0, src_h - 1, out=y0)

    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = cx - x0
    fy = cy - y0
    top = src_f[y0, x0] * (1.0 - fx) + src_f[y0, x1] * fx
    bottom = src_f[y1, x0] * (1.0 - fx) + src_f[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy


def warp_perspective(
    src: np.ndarray,
    transform: np.ndarray,
    out_shape: tuple[int, int],
    ctx: ExecutionContext,
) -> np.ndarray:
    """Warp ``src`` into a fresh ``out_shape = (h, w)`` canvas.

    This is the standalone entry point used by the WP toy benchmark
    (paper Section V-C): image in, transform in, warped image out.
    """
    out_h, out_w = out_shape
    canvas = blank(out_h, out_w)
    coverage = blank(out_h, out_w)
    warp_into(canvas, coverage, src, transform, ctx)
    return canvas
