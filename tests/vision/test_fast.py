"""Tests for the FAST-9 corner detector."""

import numpy as np
import pytest

from repro.vision.fast import BORDER, CIRCLE_OFFSETS, Keypoint, detect_fast
from tests.vision.test_frontend_oracle import _circle_stack


def stamp_corner(image: np.ndarray, x: int, y: int, bright: int = 220) -> None:
    """Paint a solid quadrant whose corner sits at (x, y)."""
    image[y:, x:] = bright


class TestCircleGeometry:
    def test_sixteen_offsets(self):
        assert len(CIRCLE_OFFSETS) == 16

    def test_radius_three(self):
        for dx, dy in CIRCLE_OFFSETS:
            assert 2.8 <= np.hypot(dx, dy) <= 3.2

    def test_offsets_unique(self):
        assert len(set(CIRCLE_OFFSETS)) == 16


class TestDetect:
    def test_finds_strong_corner(self, ctx):
        img = np.full((40, 40), 50, dtype=np.uint8)
        stamp_corner(img, 20, 20)
        keypoints = detect_fast(img, ctx, threshold=20)
        assert keypoints, "no keypoints found"
        best = keypoints[0]
        assert abs(best.x - 20) <= 2 and abs(best.y - 20) <= 2

    def test_flat_image_has_no_corners(self, ctx):
        img = np.full((40, 40), 128, dtype=np.uint8)
        assert detect_fast(img, ctx) == []

    def test_straight_edge_is_not_a_corner(self, ctx):
        img = np.full((40, 40), 50, dtype=np.uint8)
        img[:, 20:] = 220  # vertical step edge
        keypoints = detect_fast(img, ctx, threshold=20)
        assert keypoints == []

    def test_keypoints_respect_border(self, ctx, textured_image):
        for kp in detect_fast(textured_image, ctx, threshold=15):
            assert BORDER <= kp.x < textured_image.shape[1] - BORDER
            assert BORDER <= kp.y < textured_image.shape[0] - BORDER

    def test_sorted_by_score(self, ctx, textured_image):
        keypoints = detect_fast(textured_image, ctx, threshold=15)
        scores = [kp.score for kp in keypoints]
        assert scores == sorted(scores, reverse=True)

    def test_higher_threshold_fewer_keypoints(self, ctx, textured_image):
        low = detect_fast(textured_image, ctx, threshold=10)
        high = detect_fast(textured_image, ctx, threshold=40)
        assert len(high) <= len(low)

    def test_tiny_image_is_empty(self, ctx):
        assert detect_fast(np.zeros((5, 5), dtype=np.uint8), ctx) == []

    def test_charges_cycles(self, textured_image):
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        detect_fast(textured_image, ctx)
        assert ctx.cycles > 0

    def test_deterministic(self, textured_image):
        from repro.runtime.context import ExecutionContext

        first = detect_fast(textured_image, ExecutionContext(), threshold=12)
        second = detect_fast(textured_image, ExecutionContext(), threshold=12)
        assert first == second

    def test_inverted_corner_also_detected(self, ctx):
        img = np.full((40, 40), 220, dtype=np.uint8)
        img[20:, 20:] = 30  # dark quadrant: darker-arc corner
        keypoints = detect_fast(img, ctx, threshold=20)
        assert keypoints


class TestNMS:
    def test_single_maximum_per_neighbourhood(self, ctx):
        img = np.full((40, 40), 60, dtype=np.uint8)
        stamp_corner(img, 15, 15, bright=230)
        keypoints = detect_fast(img, ctx, threshold=20, nms_radius=2)
        coords = [(kp.x, kp.y) for kp in keypoints]
        for i, (x1, y1) in enumerate(coords):
            for x2, y2 in coords[i + 1 :]:
                assert max(abs(x1 - x2), abs(y1 - y2)) > 1


def _reference_contiguous_arc(flags: np.ndarray, arc: int) -> np.ndarray:
    """The original windowed-``all`` formulation, kept as the oracle."""
    wrapped = np.concatenate([flags, flags[: arc - 1]], axis=0)
    result = np.zeros(flags.shape[1:], dtype=bool)
    for start in range(16):
        result |= wrapped[start : start + arc].all(axis=0)
    return result


def _reference_nms(score: np.ndarray, radius: int) -> np.ndarray:
    """The original O((2r+1)^2) shifted-copy NMS, kept as the oracle."""
    if radius < 1:
        return score > 0
    padded = np.pad(score, radius, mode="constant", constant_values=-np.inf)
    best = np.full_like(score, -np.inf)
    size = 2 * radius + 1
    for dy in range(size):
        for dx in range(size):
            neighbour = padded[dy : dy + score.shape[0], dx : dx + score.shape[1]]
            np.maximum(best, neighbour, out=best)
    return (score > 0) & (score >= best)


class TestVectorizedRewrites:
    """The arc table and separable NMS must equal the originals."""

    def test_contiguous_arc_matches_reference(self):
        from repro.vision.fast import _arc_table, _circle_masks

        gen = np.random.default_rng(99)
        for density in (0.3, 0.6, 0.9):
            flags = gen.random((16, 25, 35)) < density
            for arc in (2, 9, 15, 16):
                assert np.array_equal(
                    _arc_table(arc)[_circle_masks(flags)], _reference_contiguous_arc(flags, arc)
                )

    def test_nms_matches_reference(self):
        from repro.vision.fast import _nms

        gen = np.random.default_rng(123)
        for _ in range(5):
            score = np.where(
                gen.random((33, 47)) < 0.25, gen.random((33, 47)) * 100, 0.0
            )
            for radius in (0, 1, 2, 4):
                assert np.array_equal(_nms(score, radius), _reference_nms(score, radius))

    def test_detect_identical_keypoints_on_random_images(self, ctx):
        """End-to-end: detection on random images must be unchanged by
        the rewrites (keypoints re-derived from the reference kernels)."""
        from repro.vision.fast import ARC_LENGTH, detect_fast

        gen = np.random.default_rng(7)
        for trial in range(3):
            image = (gen.random((48, 64)) * 255).astype(np.uint8)
            keypoints = detect_fast(image, ctx, threshold=12, nms_radius=1)

            image_f = image.astype(np.float64)
            h, w = image_f.shape
            center = image_f[BORDER : h - BORDER, BORDER : w - BORDER]
            circle = _circle_stack(image_f)
            brighter = circle > center + 12.0
            darker = circle < center - 12.0
            is_corner = _reference_contiguous_arc(
                brighter, ARC_LENGTH
            ) | _reference_contiguous_arc(darker, ARC_LENGTH)
            over = np.maximum(np.abs(circle - center) - 12.0, 0.0)
            score = np.where(is_corner, over.sum(axis=0), 0.0)
            keep = _reference_nms(score, 1)
            ys, xs = np.nonzero(keep)
            expected = {
                (int(x) + BORDER, int(y) + BORDER, float(score[y, x]))
                for x, y in zip(xs, ys)
            }
            assert {(kp.x, kp.y, kp.score) for kp in keypoints} == expected


class TestKeypointDataclass:
    def test_frozen(self):
        kp = Keypoint(1, 2, 3.0)
        with pytest.raises(AttributeError):
            kp.x = 9
