"""Differential oracle for the ORB front-end kernels under corrupted inputs.

The FAST core, its non-maximum suppression, the steered-BRIEF sampling
and the Harris/blur filters below are verbatim copies of the kernels the
optimized versions replaced.  A flipped ``img_ptr``/``patch_ptr`` copies
up to 4 KiB of aliased bytes (512 doubles) over the start of
``image_f``/``image_blurred_f``, a flipped ``fast_thresh`` can hold any
64-bit value, and flipped keypoint coordinates land outside the clamp.
Hypothesis generates exactly those inputs, and every output must match
the reference byte for byte (NaN payloads included), with the same
cycles charged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.registers import AddressBinding, flip_bit64
from repro.imaging.filters import (
    box_blur,
    gaussian_blur,
    gaussian_kernel_1d,
    harris_response,
    sobel_gradients,
)
from repro.imaging.image import as_gray, saturate_cast_u8
from repro.perfmodel.cost import kernel_cost
from repro.runtime.context import Cell, ExecutionContext
from repro.runtime.errors import InternalAbortError
from repro.vision.fast import ARC_LENGTH, BORDER, CIRCLE_OFFSETS, _nms, detect_fast_arrays
from repro.vision.orb import (
    _BATCH,
    _PATTERN,
    DESCRIPTOR_BYTES,
    ORB_BORDER,
    describe,
    orientation_angles,
)

# ---------------------------------------------------------------------------
# Reference kernels (verbatim copies of the replaced implementations)
# ---------------------------------------------------------------------------


def _circle_stack(image_f: np.ndarray) -> np.ndarray:
    h, w = image_f.shape
    inner_h, inner_w = h - 2 * BORDER, w - 2 * BORDER
    stack = np.empty((16, inner_h, inner_w), dtype=np.float64)
    for index, (dx, dy) in enumerate(CIRCLE_OFFSETS):
        stack[index] = image_f[
            BORDER + dy : BORDER + dy + inner_h, BORDER + dx : BORDER + dx + inner_w
        ]
    return stack


def _contiguous_arc(flags: np.ndarray, arc: int) -> np.ndarray:
    wrapped = np.concatenate([flags, flags[: arc - 1]], axis=0)
    counts = np.cumsum(wrapped, axis=0, dtype=np.int16)
    padded = np.concatenate(
        [np.zeros((1,) + flags.shape[1:], dtype=np.int16), counts], axis=0
    )
    window_sums = padded[arc:] - padded[:-arc]
    return (window_sums == arc).any(axis=0)


def _reference_nms(score: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        return score > 0
    from numpy.lib.stride_tricks import sliding_window_view

    size = 2 * radius + 1
    padded = np.pad(score, radius, mode="constant", constant_values=-np.inf)
    row_max = sliding_window_view(padded, size, axis=1).max(axis=-1)
    best = sliding_window_view(row_max, size, axis=0).max(axis=-1)
    return (score > 0) & (score >= best)


def _reference_detect_fast_arrays(image, ctx, threshold, nms_radius):
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
        effective_threshold = float(thresh_cell.value)
        center = image_f[BORDER : h - BORDER, BORDER : w - BORDER]
        circle = _circle_stack(image_f)
        brighter = circle > center + effective_threshold
        darker = circle < center - effective_threshold
        is_corner = _contiguous_arc(brighter, ARC_LENGTH) | _contiguous_arc(darker, ARC_LENGTH)
        diff = np.abs(circle - center)
        over = np.maximum(diff - effective_threshold, 0.0)
        score = np.where(is_corner, over.sum(axis=0), 0.0)

    # Non-maximum suppression on the score map.
    candidates = int(np.count_nonzero(score))
    with ctx.scope("vision.fast.nms"):
        ctx.tick(kernel_cost("fast.nms_kp") * max(candidates, 1))
        keep = _reference_nms(score, nms_radius)

    ys, xs = np.nonzero(keep)
    scores = score[ys, xs]
    coords = np.stack([xs + BORDER, ys + BORDER], axis=1).astype(np.int64)

    window = ctx.window("vision.fast.keypoints")
    if window is not None:
        if coords.size:
            window.gpr_array("kp_coords", coords)
        window.fpr_array("kp_scores", scores if scores.size else np.zeros(1))
        ctx.checkpoint(window)

    order = np.argsort(-scores, kind="stable")
    return coords[order], scores[order]


def _steered_samples(coords: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cos = np.cos(angles)[:, np.newaxis]
    sin = np.sin(angles)[:, np.newaxis]
    pattern = _PATTERN.astype(np.float64)

    def rotate(points: np.ndarray) -> np.ndarray:
        px = points[:, 0][np.newaxis, :]
        py = points[:, 1][np.newaxis, :]
        rx = np.round(cos * px - sin * py).astype(np.int64)
        ry = np.round(sin * px + cos * py).astype(np.int64)
        return np.stack([rx, ry], axis=2)

    first = rotate(pattern[:, 0, :]) + coords[:, np.newaxis, :]
    second = rotate(pattern[:, 1, :]) + coords[:, np.newaxis, :]
    return first, second


def _gather(image_f: np.ndarray, points: np.ndarray) -> np.ndarray:
    h, w = image_f.shape
    xs = np.clip(points[..., 0], 0, w - 1)
    ys = np.clip(points[..., 1], 0, h - 1)
    return image_f[ys, xs]


def _reference_describe(image_blurred_f, coords, ctx):
    n = coords.shape[0]
    descriptors = np.zeros((n, DESCRIPTOR_BYTES), dtype=np.uint8)
    angles = np.zeros(n, dtype=np.float64)
    if n == 0:
        return descriptors, angles

    for start in range(0, n, _BATCH):
        stop = min(start + _BATCH, n)
        batch_coords = coords[start:stop]

        window = ctx.window("vision.orb.describe")
        if window is not None:
            window.gpr_address("patch_ptr", image_blurred_f, window=min(4096, image_blurred_f.nbytes))
            window.gpr_array("kp_xy", batch_coords)
            ctx.checkpoint(window)

        with ctx.scope("vision.orb.describe"):
            ctx.tick(kernel_cost("orb.describe_kp") * (stop - start))
            h, w = image_blurred_f.shape
            limit = 8 * max(h, w)
            if np.any(np.abs(batch_coords) > limit):
                raise InternalAbortError("keypoint coordinates outside image bounds")
            safe_coords = np.clip(
                batch_coords,
                [ORB_BORDER, ORB_BORDER],
                [image_blurred_f.shape[1] - 1 - ORB_BORDER, image_blurred_f.shape[0] - 1 - ORB_BORDER],
            )
            batch_angles = orientation_angles(image_blurred_f, safe_coords)
            first, second = _steered_samples(safe_coords, batch_angles)
            bits = _gather(image_blurred_f, first) < _gather(image_blurred_f, second)
            descriptors[start:stop] = np.packbits(bits, axis=1)
            angles[start:stop] = batch_angles

    window = ctx.window("vision.orb.descriptors")
    if window is not None:
        window.gpr_array("desc_bytes", descriptors)
        window.fpr_array("kp_angles", angles)
        ctx.checkpoint(window)

    return descriptors, angles


def _convolve_rows(data: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    radius = len(kernel) // 2
    padded = np.pad(data, ((0, 0), (radius, radius)), mode="edge")
    out = np.zeros_like(data)
    for offset, weight in enumerate(kernel):
        out += weight * padded[:, offset : offset + data.shape[1]]
    return out


def _reference_harris(image: np.ndarray, k: float = 0.04, window_radius: int = 2) -> np.ndarray:
    gx, gy = sobel_gradients(image)
    gxx, gyy, gxy = gx * gx, gy * gy, gx * gy
    size = 2 * window_radius + 1
    kernel = np.full(size, 1.0 / size)

    def smooth(data: np.ndarray) -> np.ndarray:
        out = _convolve_rows(data, kernel)
        return _convolve_rows(out.T, kernel).T

    sxx, syy, sxy = smooth(gxx), smooth(gyy), smooth(gxy)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace


def _reference_separable(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    arr = as_gray(image).astype(np.float64)
    blurred = _convolve_rows(arr, kernel)
    blurred = _convolve_rows(blurred.T, kernel).T
    return saturate_cast_u8(blurred)


# ---------------------------------------------------------------------------
# Corrupted-input generation
# ---------------------------------------------------------------------------

#: Bit patterns an aliased read can deliver: NaNs with payloads and signs
#: (quiet and signalling), infinities, huge, subnormal and signed zeros.
_SPECIAL_BITS = np.array(
    [
        0x7FF8000000000000,
        0xFFF8000000000000,
        0x7FF8000000000ABC,
        0xFFF80000DEADBEEF,
        0x7FF0000000000001,
        0x7FF0000000000000,
        0xFFF0000000000000,
        0x7E37E43C8800759C,  # 1e300
        0xFE37E43C8800759C,  # -1e300
        0x0000000000000001,  # smallest subnormal
        0x800FFFFFFFFFFFFF,  # largest negative subnormal
        0x8000000000000000,  # -0.0
        0x0000000000000000,
    ],
    dtype=np.uint64,
)

_MAX_ALIAS_DOUBLES = 512


def _alias_bytes(seed: int, mix: str) -> np.ndarray:
    """512 doubles' worth of bytes an aliased pointer could read."""
    gen = np.random.default_rng(seed)
    if mix == "raw":
        words = gen.integers(0, 2**63, _MAX_ALIAS_DOUBLES, dtype=np.uint64)
        words ^= gen.integers(0, 2, _MAX_ALIAS_DOUBLES, dtype=np.uint64) << np.uint64(63)
    elif mix == "special":
        words = gen.choice(_SPECIAL_BITS, _MAX_ALIAS_DOUBLES)
    else:  # pixel-like values with specials sprinkled in
        values = np.round(gen.uniform(0.0, 255.0, _MAX_ALIAS_DOUBLES))
        if mix == "fractional":
            values += gen.uniform(-0.5, 0.5, _MAX_ALIAS_DOUBLES)
        words = values.view(np.uint64).copy()
        hits = gen.random(_MAX_ALIAS_DOUBLES) < 0.15
        words[hits] = gen.choice(_SPECIAL_BITS, int(hits.sum()))
    return words.view(np.uint8)


class _AliasInjector:
    """Stands in for the fault injector: at checkpoint ``at_visit`` every
    bound read pointer reads ``alias`` over the start of its array."""

    observing = True

    def __init__(self, alias: np.ndarray | None, at_visit: int = 0, span: int = 4096) -> None:
        self.alias = alias
        self.at_visit = at_visit
        self.span = span
        self.visits = 0

    def visit(self, ctx: ExecutionContext, window) -> None:
        visit = self.visits
        self.visits += 1
        if self.alias is None or visit != self.at_visit:
            return
        for binding in window.bindings:
            if isinstance(binding, AddressBinding):
                own = binding.array.reshape(-1).view(np.uint8)
                count = min(binding.window, own.size, self.span)
                own[:count] = self.alias[:count]


def _textured(seed: int, shape: tuple[int, int], style: str) -> np.ndarray:
    gen = np.random.default_rng(seed)
    h, w = shape
    if style == "noise":
        return gen.integers(0, 256, shape, dtype=np.uint8)
    if style == "flat":
        return np.full(shape, int(gen.integers(0, 256)), dtype=np.uint8)
    image = np.full(shape, int(gen.integers(30, 90)), dtype=np.uint8)
    for _ in range(max(1, h * w // 60)):
        y, x = int(gen.integers(0, h)), int(gen.integers(0, w))
        size = int(gen.integers(2, 8))
        image[y : y + size, x : x + size] = int(gen.integers(0, 256))
    return image


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(ctx: ExecutionContext, fn, *args):
    """``(outputs, cycles)``, or ``(exception type, cycles)`` if it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args), ctx.cycles
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), ctx.cycles


_shapes = st.tuples(st.integers(7, 72), st.integers(7, 96))
_thresholds = st.one_of(
    st.builds(flip_bit64, st.just(20), st.integers(0, 63)),
    st.just(0),
    st.integers(-(2**63), -1),
    st.integers(-300, -1),
    st.integers(1, 120),
)
_mixes = st.sampled_from(["raw", "special", "pixels", "fractional"])
_alias_spans = st.sampled_from([0, 8, 64, 1024, 4096])

# ---------------------------------------------------------------------------
# FAST + NMS
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=_shapes,
    style=st.sampled_from(["noise", "blocks", "flat"]),
    threshold=_thresholds,
    nms_radius=st.integers(0, 3),
    mix=_mixes,
    span=_alias_spans,
)
def test_detect_fast_matches_reference(seed, shape, style, threshold, nms_radius, mix, span):
    image = _textured(seed, shape, style)
    alias = _alias_bytes(seed + 1, mix) if span else None
    results = []
    for detect in (detect_fast_arrays, _reference_detect_fast_arrays):
        ctx = ExecutionContext(injector=_AliasInjector(alias, span=span))
        results.append(_run(ctx, detect, image, ctx, threshold, nms_radius))
    (got, got_cycles), (want, want_cycles) = results
    assert got_cycles == want_cycles
    if isinstance(want, type):
        assert got is want
        return
    assert _same(got[0], want[0])
    assert _same(got[1], want[1])


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    density=st.floats(0.0, 1.0),
    radius=st.integers(0, 3),
    mix=_mixes,
)
def test_nms_matches_reference_on_corrupted_maps(seed, shape, density, radius, mix):
    gen = np.random.default_rng(seed)
    score = np.where(gen.random(shape) < density, np.round(gen.uniform(0, 40, shape)), 0.0)
    corrupt = np.resize(_alias_bytes(seed, mix).view(np.float64), score.size)
    hits = gen.random(score.size) < 0.2
    score.reshape(-1)[hits] = corrupt[hits]
    with np.errstate(all="ignore"):
        assert _same(_nms(score, radius), _reference_nms(score, radius))


# ---------------------------------------------------------------------------
# Steered BRIEF
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=_shapes,
    n=st.integers(1, 3 * _BATCH + 5),
    mix=_mixes,
    span=_alias_spans,
    at_visit=st.integers(0, 3),
    wild=st.floats(0.0, 1.0),
    abort=st.booleans(),
)
def test_describe_matches_reference(seed, shape, n, mix, span, at_visit, wild, abort):
    gen = np.random.default_rng(seed)
    h, w = shape
    blurred_f = np.round(gen.uniform(0.0, 255.0, shape))
    limit = 8 * max(h, w)
    coords = np.stack(
        [gen.integers(0, w, n), gen.integers(0, min(h, 12), n)], axis=1
    ).astype(np.int64)
    # Coordinates outside the clamp but within the abort limit, and
    # (sometimes) one past it.
    outside = gen.random(n) < wild
    coords[outside] = gen.integers(-limit, limit + 1, (int(outside.sum()), 2))
    if abort:
        coords[gen.integers(0, n), gen.integers(0, 2)] = limit + 1
    alias = _alias_bytes(seed + 1, mix) if span else None
    results = []
    for run in (describe, _reference_describe):
        ctx = ExecutionContext(injector=_AliasInjector(alias, at_visit=at_visit, span=span))
        results.append(_run(ctx, run, blurred_f.copy(), coords.copy(), ctx))
    (got, got_cycles), (want, want_cycles) = results
    assert got_cycles == want_cycles
    if isinstance(want, type):
        assert got is want
        return
    assert _same(got[0], want[0])
    assert _same(got[1], want[1])


# ---------------------------------------------------------------------------
# Harris and the separable filters
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 72), st.integers(1, 96)),
    style=st.sampled_from(["noise", "blocks", "flat"]),
    window_radius=st.integers(1, 3),
)
def test_harris_matches_reference(seed, shape, style, window_radius):
    image = _textured(seed, shape, style)
    got = harris_response(image, window_radius=window_radius)
    assert _same(got, _reference_harris(image, window_radius=window_radius))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 72), st.integers(1, 96)),
    sigma=st.sampled_from([0.5, 1.1, 1.2, 2.0]),
    radius=st.integers(1, 3),
)
def test_blurs_match_reference(seed, shape, sigma, radius):
    image = _textured(seed, shape, "noise")
    gaussian = gaussian_kernel_1d(sigma)
    assert _same(gaussian_blur(image, sigma), _reference_separable(image, gaussian))
    box = np.full(2 * radius + 1, 1.0 / (2 * radius + 1))
    assert _same(box_blur(image, radius), _reference_separable(image, box))


@pytest.mark.parametrize("shape", [(7, 7), (7, 8), (8, 7), (7, 10)])
def test_lone_fractional_corner_sums_like_the_stack(shape):
    """Scores are summed in the stack's order even for a single corner.

    NumPy reduces a ``(16, 1)`` gather pairwise but a ``(16, h, w)``
    stack plane by plane (pairwise again when ``h = w = 1``), so a lone
    corner with fractional circle values exposes any other order.
    """
    image = np.zeros(shape, dtype=np.uint8)
    gen = np.random.default_rng(3)
    lone = 0
    for _ in range(300):
        alias = gen.uniform(0.0, 255.0, _MAX_ALIAS_DOUBLES).view(np.uint8)
        results = []
        for detect in (detect_fast_arrays, _reference_detect_fast_arrays):
            ctx = ExecutionContext(injector=_AliasInjector(alias))
            results.append(_run(ctx, detect, image, ctx, 1, 0))
        (got, got_cycles), (want, want_cycles) = results
        assert got_cycles == want_cycles
        assert _same(got[0], want[0]) and _same(got[1], want[1])
        lone += want[1].size == 1
    assert lone >= 20
