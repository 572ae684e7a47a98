"""ORB-style features: oriented FAST keypoints + rotated BRIEF descriptors.

Mirrors the feature front end the paper's VS algorithm uses (Section
III-A, citing Rublee et al.): FAST detection, Harris ranking of the
candidates, intensity-centroid orientation, and a steered 256-bit BRIEF
descriptor sampled from a blurred patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.forensics import probes
from repro.imaging.filters import gaussian_blur, harris_response
from repro.imaging.image import as_gray
from repro.perfmodel.cost import kernel_cost
from repro.runtime.context import ExecutionContext
from repro.vision.fast import detect_fast_arrays

#: Number of BRIEF test pairs (bits) per descriptor.
DESCRIPTOR_BITS = 256

#: Bytes per packed descriptor.
DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8

#: Half-width of the BRIEF sampling pattern.
PATTERN_RADIUS = 6

#: Keypoints closer than this to the border are dropped (rotation can
#: push pattern samples out to ``PATTERN_RADIUS * sqrt(2)``).
ORB_BORDER = 10

#: Patch half-width for the intensity-centroid orientation.
CENTROID_RADIUS = 7

#: Keypoints described per checkpoint batch.
_BATCH = 32


@dataclass
class FeatureSet:
    """Keypoints and descriptors extracted from one frame."""

    coords: np.ndarray  # (n, 2) int64 pixel coordinates (x, y)
    descriptors: np.ndarray  # (n, 32) uint8 packed 256-bit descriptors
    angles: np.ndarray  # (n,) float64 orientation in radians

    def __len__(self) -> int:
        return int(self.coords.shape[0])


def brief_pattern(seed: int = 1234) -> np.ndarray:
    """The fixed BRIEF test pattern: ``(256, 2, 2)`` integer offsets.

    Offsets are drawn from a clipped Gaussian, the distribution the BRIEF
    paper found best, and are identical across the whole library (the
    pattern is baked into the algorithm, not per-run randomness).
    """
    rng = np.random.default_rng(seed)
    pattern = rng.normal(0.0, PATTERN_RADIUS / 2.0, size=(DESCRIPTOR_BITS, 2, 2))
    return np.clip(np.round(pattern), -PATTERN_RADIUS, PATTERN_RADIUS).astype(np.int64)


_PATTERN = brief_pattern()


def _centroid_grids() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed centroid patch offsets: ``(oy, ox, disk)`` grids."""
    offsets = np.arange(-CENTROID_RADIUS, CENTROID_RADIUS + 1)
    oy, ox = np.meshgrid(offsets, offsets, indexing="ij")
    disk = (ox**2 + oy**2) <= CENTROID_RADIUS**2
    return oy, ox, disk


_CENTROID_OY, _CENTROID_OX, _CENTROID_DISK = _centroid_grids()


def orientation_angles(image_f: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Intensity-centroid orientation of each keypoint patch (radians).

    One batched gather replaces the per-keypoint patch loop: all ``n``
    patches are pulled in a single advanced-indexing read and the moment
    sums reduce over the trailing patch axes.  Each patch product is
    freshly materialised C-contiguous in both formulations, so the
    pairwise summation order — and therefore every output bit — matches
    the scalar loop exactly.
    """
    ys = coords[:, 1][:, np.newaxis, np.newaxis] + _CENTROID_OY
    xs = coords[:, 0][:, np.newaxis, np.newaxis] + _CENTROID_OX
    masked = image_f[ys, xs] * _CENTROID_DISK
    m10 = (masked * _CENTROID_OX).sum(axis=(1, 2))
    m01 = (masked * _CENTROID_OY).sum(axis=(1, 2))
    return np.arctan2(m01, m10)


#: The 512 BRIEF sample points (each test's first point, then each
#: test's second point) hold 145 distinct offsets, so a batch rotates
#: only those; ``_FIRST``/``_SECOND`` index each test's two points.
_OFFSETS, _WHERE = np.unique(
    np.concatenate([_PATTERN[:, 0, :], _PATTERN[:, 1, :]]), axis=0, return_inverse=True
)
_POINT_X, _POINT_Y = _OFFSETS.T.astype(np.float64, order="C")
_FIRST, _SECOND = _WHERE.reshape(2, DESCRIPTOR_BITS)


def _steered_bits(image_f: np.ndarray, coords: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """BRIEF test results ``(n, 256)`` for the pattern steered by ``angles``.

    One rotation of the pattern points per keypoint, rounded and cast to
    integers once, offset by ``coords``, clamped into the image (border
    replication) and read in one gather; each test then compares two
    of the gathered samples.
    """
    h, w = image_f.shape
    cos = np.cos(angles)[:, np.newaxis]
    sin = np.sin(angles)[:, np.newaxis]
    xs = np.round(cos * _POINT_X - sin * _POINT_Y).astype(np.int64)
    ys = np.round(sin * _POINT_X + cos * _POINT_Y).astype(np.int64)
    xs += coords[:, 0:1]
    ys += coords[:, 1:2]
    np.minimum(np.maximum(xs, 0, out=xs), w - 1, out=xs)
    np.minimum(np.maximum(ys, 0, out=ys), h - 1, out=ys)
    ys *= w
    ys += xs
    samples = np.take(image_f.reshape(-1), ys)
    return np.take(samples, _FIRST, axis=1) < np.take(samples, _SECOND, axis=1)


def describe(
    image_blurred_f: np.ndarray,
    coords: np.ndarray,
    ctx: ExecutionContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute packed steered-BRIEF descriptors for ``coords``.

    Returns ``(descriptors (n, 32) uint8, angles (n,) float64)``.
    """
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
            # Library precondition (the OpenCV CV_Assert analog): key
            # points must lie sensibly near the image.  Grossly corrupted
            # coordinates trip it — the paper's "abort" crash category.
            h, w = image_blurred_f.shape
            limit = 8 * max(h, w)
            if np.any(np.abs(batch_coords) > limit):
                from repro.runtime.errors import InternalAbortError

                raise InternalAbortError("keypoint coordinates outside image bounds")
            # Mildly corrupted coordinates are clamped into the image
            # (border replication), producing garbage descriptors rather
            # than a wild read; the pointer binding models the wild-read
            # case.
            safe_coords = np.clip(
                batch_coords,
                [ORB_BORDER, ORB_BORDER],
                [image_blurred_f.shape[1] - 1 - ORB_BORDER, image_blurred_f.shape[0] - 1 - ORB_BORDER],
            )
            batch_angles = orientation_angles(image_blurred_f, safe_coords)
            bits = _steered_bits(image_blurred_f, safe_coords, batch_angles)
            descriptors[start:stop] = np.packbits(bits, axis=1)
            angles[start:stop] = batch_angles

    window = ctx.window("vision.orb.descriptors")
    if window is not None:
        window.gpr_array("desc_bytes", descriptors)
        window.fpr_array("kp_angles", angles)
        ctx.checkpoint(window)

    return descriptors, angles


def orb_features(
    image: np.ndarray,
    ctx: ExecutionContext,
    n_keypoints: int = 100,
    fast_threshold: int = 20,
) -> FeatureSet:
    """Full ORB front end: blur, detect, rank, orient and describe."""
    with telemetry.span("vision.orb", ctx=ctx):
        return _orb_features(image, ctx, n_keypoints, fast_threshold)


def _orb_features(
    image: np.ndarray,
    ctx: ExecutionContext,
    n_keypoints: int,
    fast_threshold: int,
) -> FeatureSet:
    arr = as_gray(image)
    h, w = arr.shape
    blurred = gaussian_blur(arr, sigma=1.1, ctx=ctx)
    blurred_f = blurred.astype(np.float64)

    kp_coords, kp_scores = detect_fast_arrays(arr, ctx, threshold=fast_threshold)
    if probes.active():
        # Divergence probe: the FAST stage's output is the detected
        # corner list (positions and scores, in rank order).  The empty
        # case stays a flat (0,) float64 record, matching the shape the
        # per-keypoint tuple list produced.
        record = (
            np.column_stack([kp_coords.astype(np.float64), kp_scores])
            if kp_coords.shape[0]
            else np.array([], dtype=np.float64)
        )
        probes.record("fast", record)
    xs, ys = kp_coords[:, 0], kp_coords[:, 1]
    bounds_mask = (
        (xs >= ORB_BORDER)
        & (xs < w - ORB_BORDER)
        & (ys >= ORB_BORDER)
        & (ys < h - ORB_BORDER)
    )
    in_bounds = kp_coords[bounds_mask]
    if not in_bounds.shape[0]:
        empty = np.zeros((0, 2), dtype=np.int64)
        features = FeatureSet(empty, np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8), np.zeros(0))
        probes.record("orb", features.coords, features.descriptors, features.angles)
        return features

    with ctx.scope("vision.orb.rank"):
        ctx.tick(kernel_cost("orb.harris_px") * h * w)
        response = harris_response(arr)
        # Stable descending argsort over the gathered responses: the same
        # permutation as the stable Python sort over keypoint objects,
        # including FAST-rank tie-breaking.
        ranked = np.argsort(-response[in_bounds[:, 1], in_bounds[:, 0]], kind="stable")

    coords = np.ascontiguousarray(in_bounds[ranked[:n_keypoints]])
    descriptors, angles = describe(blurred_f, coords, ctx)
    probes.record("orb", coords, descriptors, angles)
    return FeatureSet(coords, descriptors, angles)
