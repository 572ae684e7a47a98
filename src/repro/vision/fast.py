"""FAST segment-test corner detector (FAST-9 on the 16-pixel circle).

The VS algorithm uses FAST detectors for efficient keypoint detection
(paper Section III-A, citing Rosten & Drummond).  A pixel is a corner
when at least ``ARC_LENGTH`` contiguous pixels on the Bresenham circle of
radius 3 are all brighter than the center plus a threshold, or all darker
than the center minus it.

The arc test is one lookup of each pixel's packed 16-bit circle mask in
a table built at import, and scores are summed only at corners.  Outputs
are bit-identical to summing a ``(16, h, w)`` neighbour stack, for every
input a fault can produce (NaN, infinities, subnormals, any threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.imaging.image import as_gray
from repro.perfmodel.cost import kernel_cost
from repro.runtime.context import Cell, ExecutionContext

#: The 16 (dx, dy) offsets of the Bresenham circle of radius 3, clockwise.
CIRCLE_OFFSETS: tuple[tuple[int, int], ...] = (
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)

#: Contiguous arc length required for a corner (FAST-9).
ARC_LENGTH = 9

#: Circle radius; keypoints cannot sit closer than this to the border.
BORDER = 3


@dataclass(frozen=True)
class Keypoint:
    """A detected corner with its FAST score."""

    x: int
    y: int
    score: float


#: Circle offsets as arrays, for flat-index arithmetic.
_CIRCLE_DX, _CIRCLE_DY = np.array(CIRCLE_OFFSETS, dtype=np.int64).T

#: Weight of circle pixel ``i`` in a packed 16-bit circle mask.
_CIRCLE_BITS = (1 << np.arange(16)).astype(np.uint16)


def _arc_table(arc: int) -> np.ndarray:
    """``table[mask]``: does the 16-bit circle ``mask`` hold ``arc``
    cyclically contiguous set bits?

    Built once by rotate-and-AND: after ANDing the mask with its first
    ``arc - 1`` cyclic rotations, bit ``i`` survives exactly when bits
    ``i .. i + arc - 1`` (mod 16) are all set.  The masks go through in
    blocks of 4096 so that building the table at import does not raise
    the peak memory of processes that never detect a corner.
    """
    table = np.empty(1 << 16, dtype=bool)
    for low in range(0, 1 << 16, 1 << 12):
        masks = np.arange(low, low + (1 << 12), dtype=np.uint32)
        runs = masks.copy()
        for shift in range(1, arc):
            runs &= ((masks >> shift) | (masks << (16 - shift))) & 0xFFFF
        table[low : low + (1 << 12)] = runs != 0
    return table


_ARC_TABLE = _arc_table(ARC_LENGTH)


def _circle_masks(flags: np.ndarray) -> np.ndarray:
    """Pack ``(16, ...)`` boolean circle flags into uint16 masks (bit ``i``
    is circle pixel ``i``)."""
    return np.einsum("k,k...->...", _CIRCLE_BITS, flags.view(np.uint8))


def _score_map(image_f: np.ndarray, threshold: float) -> np.ndarray:
    """FAST score of every interior pixel (``image[3:-3, 3:-3]``).

    The score is 0 off corners and ``sum_i max(|p_i - c| - t, 0)`` over
    the circle on them.  On the flat image the interior rows, together
    with the ``2 * BORDER`` columns between them, form one contiguous
    run, so every circle neighbour is a contiguous slice of it; results
    in the in-between columns are dropped.  Scores are summed only at
    corners, from 0.0 and one circle pixel at a time in circle order.
    That is how NumPy reduces a ``(16, h, w)`` stack along its first
    axis, so every score carries the same bits (NaN payloads included)
    as the reduction over the full stack.
    """
    h, w = image_f.shape
    inner_h, inner_w = h - 2 * BORDER, w - 2 * BORDER
    flat = image_f.reshape(-1)
    start = BORDER * w + BORDER
    span = (inner_h - 1) * w + inner_w
    offsets = _CIRCLE_DY * w + _CIRCLE_DX
    center = flat[start : start + span]
    brighter_than = center + threshold
    darker_than = center - threshold
    flags = np.empty((16, 2, span), dtype=bool)
    for index, offset in enumerate(offsets):
        ring = flat[start + offset : start + offset + span]
        np.greater(ring, brighter_than, out=flags[index, 0])
        np.less(ring, darker_than, out=flags[index, 1])
    arcs = _ARC_TABLE[_circle_masks(flags)]
    corners = np.flatnonzero(arcs[0] | arcs[1])
    # Free the flags before the corners' circles are gathered.
    del flags, arcs
    rows, cols = np.divmod(corners, w)
    inside = cols < inner_w
    pixels = start + corners[inside]
    over = np.abs(flat[pixels + offsets[:, np.newaxis]] - flat[pixels])
    over -= threshold
    np.maximum(over, 0.0, out=over)
    score = np.zeros((inner_h, inner_w))
    if score.size == 1:
        # A one-pixel stack is reduced as one contiguous run of 16
        # values, which NumPy sums pairwise.
        values = over.sum(axis=0)
    else:
        values = np.zeros(pixels.size)
        for ring_over in over:
            values += ring_over
    score[rows[inside], cols[inside]] = values
    return score


def detect_fast(
    image: np.ndarray,
    ctx: ExecutionContext,
    threshold: int = 20,
    nms_radius: int = 1,
) -> list[Keypoint]:
    """Detect FAST-9 corners with non-maximum suppression.

    Returns keypoints sorted by descending score.  Thin object wrapper
    around :func:`detect_fast_arrays` for callers that want per-keypoint
    records; bulk consumers (the ORB front end) use the array form
    directly and skip the Python object construction.
    """
    coords, scores = detect_fast_arrays(image, ctx, threshold, nms_radius)
    return [
        Keypoint(x=int(x), y=int(y), score=float(s))
        for (x, y), s in zip(coords, scores)
    ]


def detect_fast_arrays(
    image: np.ndarray,
    ctx: ExecutionContext,
    threshold: int = 20,
    nms_radius: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Detect FAST-9 corners; returns ``(coords (n, 2) int64, scores (n,))``.

    Both arrays are sorted by descending score (stable, so raster order
    breaks ties exactly like the :class:`Keypoint` list form).
    """
    with telemetry.span("vision.fast", ctx=ctx):
        return _detect_fast_arrays(image, ctx, threshold, nms_radius)


def _detect_fast_arrays(
    image: np.ndarray,
    ctx: ExecutionContext,
    threshold: int,
    nms_radius: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Score, suppress and rank FAST corners around two checkpoints.

    ``vision.fast.detect`` binds the image pointer and the threshold
    before the score map is built from ``image_f``; a flipped pointer
    copies up to 4 KiB of aliased bytes over its start.
    ``vision.fast.keypoints`` binds the suppressed corner coordinates and
    scores before they are ranked.
    """
    arr = as_gray(image)
    h, w = arr.shape
    if h <= 2 * BORDER or w <= 2 * BORDER:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0)

    thresh_cell = Cell(int(threshold))
    image_f = arr.astype(np.float64)

    window = ctx.window("vision.fast.detect")
    if window is not None:
        from repro.faultinject.registers import Role

        window.gpr_address("img_ptr", image_f, window=min(4096, image_f.nbytes))
        window.gpr_cell("fast_thresh", thresh_cell, role=Role.DATA)
        ctx.checkpoint(window)

    with ctx.scope("vision.fast.detect"):
        ctx.tick(kernel_cost("fast.px") * h * w)
        score = _score_map(image_f, float(thresh_cell.value))

    # Non-maximum suppression on the score map.
    candidates = int(np.count_nonzero(score))
    with ctx.scope("vision.fast.nms"):
        ctx.tick(kernel_cost("fast.nms_kp") * max(candidates, 1))
        keep = _nms(score, nms_radius)

    ys, xs = np.nonzero(keep)
    scores = score[ys, xs]
    coords = np.stack([xs + BORDER, ys + BORDER], axis=1).astype(np.int64)

    window = ctx.window("vision.fast.keypoints")
    if window is not None:
        if coords.size:
            window.gpr_array("kp_coords", coords)
        window.fpr_array("kp_scores", scores if scores.size else np.zeros(1))
        ctx.checkpoint(window)

    # Rank after the checkpoint so an injected flip into the coordinate
    # or score registers perturbs the ordering exactly as it did when
    # the ranked list was built from the post-checkpoint arrays.
    order = np.argsort(-scores, kind="stable")
    return coords[order], scores[order]


def _nms(score: np.ndarray, radius: int) -> np.ndarray:
    """Boolean map of local maxima within a ``(2r+1)`` square window.

    The square-window maximum is separable: shifted ``np.maximum`` over
    the ``-inf``-padded map along rows, then along columns.  Like the
    window ``max`` it replaces, ``np.maximum`` propagates NaN.
    """
    if radius < 1:
        return score > 0
    h, w = score.shape
    size = 2 * radius + 1
    padded = np.full((h + 2 * radius, w + 2 * radius), -np.inf)
    padded[radius : radius + h, radius : radius + w] = score
    row_max = padded[:, :w].copy()
    for offset in range(1, size):
        np.maximum(row_max, padded[:, offset : offset + w], out=row_max)
    best = row_max[:h].copy()
    for offset in range(1, size):
        np.maximum(best, row_max[offset : offset + h], out=best)
    return (score > 0) & (score >= best)
