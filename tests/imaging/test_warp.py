"""Tests for the perspective warp (the hot function)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.geometry import identity, rotation, scaling, translation
from repro.imaging.image import blank
from repro.imaging.warp import warp_geometry, warp_into, warp_perspective, warp_stores
from repro.runtime.context import CostProfile, ExecutionContext
from repro.runtime.errors import DegenerateModelError


@pytest.fixture()
def gradient_image():
    xs = np.arange(40, dtype=np.uint8)
    return np.tile(xs, (30, 1))


class TestWarpPerspective:
    def test_identity_preserves_content(self, gradient_image, ctx):
        out = warp_perspective(gradient_image, identity(), (30, 40), ctx)
        assert np.array_equal(out, gradient_image)

    def test_translation_moves_content(self, gradient_image, ctx):
        out = warp_perspective(gradient_image, translation(5, 3), (40, 50), ctx)
        assert np.array_equal(out[3:33, 5:45], gradient_image)
        assert np.all(out[:3, :] == 0)

    def test_fractional_translation_interpolates(self, ctx):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[5, 5] = 200
        out = warp_perspective(img, translation(0.5, 0.0), (10, 10), ctx)
        # The bright pixel spreads between two columns.
        assert out[5, 5] > 0 and out[5, 6] > 0
        assert out[5, 5] < 200 and out[5, 6] < 200

    def test_scaling_up_covers_larger_area(self, gradient_image, ctx):
        out = warp_perspective(gradient_image, scaling(2.0), (60, 80), ctx)
        assert np.count_nonzero(out) > np.count_nonzero(gradient_image)

    def test_rotation_stays_in_bounds(self, gradient_image, ctx):
        mat = translation(20, 20) @ rotation(0.5)
        out = warp_perspective(gradient_image, mat, (80, 100), ctx)
        assert out.shape == (80, 100)

    def test_degenerate_transform_rejected(self, gradient_image, ctx):
        mat = np.zeros((3, 3))
        mat[2, 2] = 1.0
        with pytest.raises(DegenerateModelError):
            warp_perspective(gradient_image, mat, (30, 40), ctx)


class TestWarpInto:
    def test_updates_coverage(self, gradient_image, ctx):
        canvas = blank(50, 60)
        coverage = blank(50, 60)
        written = warp_into(canvas, coverage, gradient_image, translation(10, 10), ctx)
        assert written == 30 * 40
        assert np.count_nonzero(coverage) == written

    def test_projection_outside_canvas_writes_nothing(self, gradient_image, ctx):
        canvas = blank(50, 60)
        coverage = blank(50, 60)
        written = warp_into(canvas, coverage, gradient_image, translation(1000, 0), ctx)
        assert written == 0
        assert np.count_nonzero(coverage) == 0

    def test_partial_clip(self, gradient_image, ctx):
        canvas = blank(50, 60)
        coverage = blank(50, 60)
        written = warp_into(canvas, coverage, gradient_image, translation(-20, 0), ctx)
        assert 0 < written < 30 * 40

    def test_later_writes_overwrite(self, ctx):
        canvas = blank(20, 20)
        coverage = blank(20, 20)
        bright = np.full((10, 10), 200, dtype=np.uint8)
        dark = np.full((10, 10), 30, dtype=np.uint8)
        warp_into(canvas, coverage, bright, identity(), ctx)
        warp_into(canvas, coverage, dark, identity(), ctx)
        assert np.all(canvas[:10, :10] == 30)

    def test_shape_mismatch_rejected(self, gradient_image, ctx):
        with pytest.raises(ValueError):
            warp_into(blank(10, 10), blank(11, 11), gradient_image, identity(), ctx)

    def test_charges_warp_scopes(self, gradient_image):
        profile = CostProfile()
        ctx = ExecutionContext(profile=profile)
        warp_perspective(gradient_image, identity(), (30, 40), ctx)
        scopes = profile.by_scope()
        assert any("warp_perspective_invoker" in s for s in scopes)
        assert any("remap_bilinear" in s for s in scopes)

    def test_deterministic(self, gradient_image):
        outs = [
            warp_perspective(
                gradient_image,
                translation(2.5, 1.25) @ rotation(0.1),
                (50, 60),
                ExecutionContext(),
            )
            for _ in range(2)
        ]
        assert np.array_equal(outs[0], outs[1])


class TestWarpStores:
    """``warp_stores`` at any pixel subset is the kernel's store mask there."""

    @given(
        angle=st.floats(-0.6, 0.6),
        tx=st.floats(-30.0, 50.0),
        ty=st.floats(-30.0, 40.0),
        scale=st.floats(0.5, 2.0),
        tilt=st.floats(-2e-3, 2e-3),
        subset=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None)
    def test_subset_matches_full_warp(self, angle, tx, ty, scale, tilt, subset):
        gradient_image = np.tile(np.arange(40, dtype=np.uint8), (30, 1))
        mat = translation(tx, ty) @ rotation(angle, (20.0, 15.0)) @ scaling(scale)
        mat[2, 0] = tilt
        canvas, coverage = blank(50, 60), blank(50, 60)
        try:
            warp_into(canvas, coverage, gradient_image, mat, ExecutionContext())
        except DegenerateModelError:
            return
        geometry = warp_geometry(mat, gradient_image.shape, canvas.shape)
        rows, cols = np.divmod(np.arange(canvas.size), canvas.shape[1])
        stores = warp_stores(geometry, gradient_image.shape, rows, cols)
        assert np.array_equal(stores, coverage.ravel() == 255)
        pick = np.random.default_rng(subset).random(canvas.size) < 0.05
        assert np.array_equal(
            warp_stores(geometry, gradient_image.shape, rows[pick], cols[pick]),
            stores[pick],
        )
