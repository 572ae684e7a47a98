"""Bit-identity of the vectorized input-synthesis kernels.

``draw_line``, ``fill_disk``, ``terrain._bilinear_upsample`` and
``camera.render_frame`` were rewritten from per-pixel Python loops and
whole-landscape float copies into scatters, broadcasts, a separable
upsample and sample-only conversion; the upsample and
``terrain.value_noise`` then moved to blocks of output rows.  These tests pin them against the
original implementations, kept verbatim below — equality is exact
(``array_equal``), because every golden run, snapshot tape and campaign
record is a function of the rendered input bytes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.draw import draw_line, fill_disk
from repro.imaging.image import saturate_cast_u8
from repro.video.camera import CameraState, render_frame
from repro.video import terrain
from repro.video.terrain import _bilinear_upsample, value_noise


def _reference_fill_disk(field, cx, cy, radius, value):
    """The original ``fill_disk``, verbatim."""
    h, w = field.shape
    x0 = max(0, int(np.floor(cx - radius)))
    x1 = min(w, int(np.ceil(cx + radius)) + 1)
    y0 = max(0, int(np.floor(cy - radius)))
    y1 = min(h, int(np.ceil(cy + radius)) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    ys, xs = np.mgrid[y0:y1, x0:x1]
    mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius**2
    field[y0:y1, x0:x1][mask] = value


def _reference_draw_line(field, x0, y0, x1, y1, value, thickness=1):
    """The original per-sample ``draw_line`` loop, verbatim."""
    length = float(np.hypot(x1 - x0, y1 - y0))
    steps = max(2, int(length * 2))
    ts = np.linspace(0.0, 1.0, steps)
    xs = x0 + ts * (x1 - x0)
    ys = y0 + ts * (y1 - y0)
    half = max(0, thickness // 2)
    h, w = field.shape
    for px, py in zip(xs, ys):
        cx0 = max(0, int(px) - half)
        cx1 = min(w, int(px) + half + 1)
        cy0 = max(0, int(py) - half)
        cy1 = min(h, int(py) + half + 1)
        if cx0 < cx1 and cy0 < cy1:
            field[cy0:cy1, cx0:cx1] = value


def _reference_bilinear_upsample(grid, height, width):
    """The original four-corner ``_bilinear_upsample``, verbatim."""
    gh, gw = grid.shape
    ys = np.linspace(0, gh - 1, height)
    xs = np.linspace(0, gw - 1, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, np.newaxis]
    fx = (xs - x0)[np.newaxis, :]
    top = grid[np.ix_(y0, x0)] * (1 - fx) + grid[np.ix_(y0, x1)] * fx
    bottom = grid[np.ix_(y1, x0)] * (1 - fx) + grid[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


def _reference_value_noise(rng, height, width, octaves=4, base_cells=8, persistence=0.55):
    """The whole-field ``value_noise``, verbatim but for the upsample it calls."""
    field = np.zeros((height, width), dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    for octave in range(octaves):
        cells = base_cells * (2**octave)
        grid = rng.random((cells + 1, cells + 1))
        field += amplitude * _reference_bilinear_upsample(grid, height, width)
        total += amplitude
        amplitude *= persistence
    return field / total


def _reference_render_frame(landscape, state, frame_w, frame_h, noise_rng, noise_sigma=1.0):
    """The original whole-landscape-float ``render_frame``, verbatim."""
    world = landscape.astype(np.float64)
    h, w = world.shape
    transform = state.frame_to_world(frame_w, frame_h)

    xs = np.arange(frame_w, dtype=np.float64)
    ys = np.arange(frame_h, dtype=np.float64)
    grid_x, grid_y = np.meshgrid(xs, ys)
    wx = transform[0, 0] * grid_x + transform[0, 1] * grid_y + transform[0, 2]
    wy = transform[1, 0] * grid_x + transform[1, 1] * grid_y + transform[1, 2]
    wx = np.clip(wx, 0.0, w - 1.0)
    wy = np.clip(wy, 0.0, h - 1.0)

    x0 = np.floor(wx).astype(np.intp)
    y0 = np.floor(wy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = wx - x0
    fy = wy - y0
    top = world[y0, x0] * (1 - fx) + world[y0, x1] * fx
    bottom = world[y1, x0] * (1 - fx) + world[y1, x1] * fx
    sampled = top * (1 - fy) + bottom * fy

    lit = state.gain * sampled + state.offset
    lit += noise_rng.normal(0.0, noise_sigma, size=lit.shape)
    return saturate_cast_u8(lit)


def _coord(low: float, high: float):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _field(seed: int, height: int, width: int) -> np.ndarray:
    return np.random.default_rng(seed).random((height, width)) * 255.0


#: Field sides from degenerate (0) and 1-pixel up to small images.
SIDES = st.integers(0, 24)


class TestDrawLine:
    @settings(max_examples=300, deadline=None)
    @given(
        height=SIDES,
        width=SIDES,
        ends=st.tuples(_coord(-40, 60), _coord(-40, 60), _coord(-40, 60), _coord(-40, 60)),
        thickness=st.integers(1, 5),
        value=_coord(-300, 300),
        seed=st.integers(0, 2**16),
    )
    def test_matches_loop_bit_for_bit(self, height, width, ends, thickness, value, seed):
        expected = _field(seed, height, width)
        actual = expected.copy()
        _reference_draw_line(expected, *ends, value=value, thickness=thickness)
        draw_line(actual, *ends, value=value, thickness=thickness)
        assert np.array_equal(actual, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        ends=st.tuples(_coord(-8, 20), _coord(-8, 20), _coord(-8, 20), _coord(-8, 20)),
        thickness=st.integers(-1, 5),
        value=st.integers(0, 255),
    )
    def test_uint8_field_and_nonpositive_thickness(self, ends, thickness, value):
        expected = np.full((12, 10), 7, dtype=np.uint8)
        actual = expected.copy()
        _reference_draw_line(expected, *ends, value=value, thickness=thickness)
        draw_line(actual, *ends, value=value, thickness=thickness)
        assert np.array_equal(actual, expected)

    def test_point_line_on_one_pixel_field(self):
        expected = np.zeros((1, 1))
        actual = expected.copy()
        _reference_draw_line(expected, 0.4, 0.6, 0.4, 0.6, value=5.0, thickness=3)
        draw_line(actual, 0.4, 0.6, 0.4, 0.6, value=5.0, thickness=3)
        assert np.array_equal(actual, expected)
        assert actual[0, 0] == 5.0


class TestFillDisk:
    @settings(max_examples=300, deadline=None)
    @given(
        height=SIDES,
        width=SIDES,
        cx=_coord(-15, 40),
        cy=_coord(-15, 40),
        radius=st.one_of(_coord(0, 1), _coord(-2, 9)),
        value=_coord(-300, 300),
        seed=st.integers(0, 2**16),
    )
    def test_matches_mgrid_bit_for_bit(self, height, width, cx, cy, radius, value, seed):
        expected = _field(seed, height, width)
        actual = expected.copy()
        _reference_fill_disk(expected, cx, cy, radius, value)
        fill_disk(actual, cx, cy, radius, value)
        assert np.array_equal(actual, expected)

    def test_integer_centre_on_one_pixel_field(self):
        expected = np.zeros((1, 1))
        actual = expected.copy()
        _reference_fill_disk(expected, 0, 0, 0.0, 3.0)
        fill_disk(actual, 0, 0, 0.0, 3.0)
        assert np.array_equal(actual, expected)
        assert actual[0, 0] == 3.0


class TestBilinearUpsample:
    @settings(max_examples=200, deadline=None)
    @given(
        grid_h=st.integers(1, 9),
        grid_w=st.integers(1, 9),
        height=st.integers(0, 60),
        width=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    def test_matches_four_corner_bit_for_bit(self, grid_h, grid_w, height, width, seed):
        grid = np.random.default_rng(seed).random((grid_h, grid_w))
        expected = _reference_bilinear_upsample(grid, height, width)
        actual = _bilinear_upsample(grid, height, width)
        assert actual.shape == expected.shape == (height, width)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        grid_h=st.integers(1, 9),
        grid_w=st.integers(1, 9),
        height=st.integers(0, 60),
        width=st.integers(0, 60),
        block_rows=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_row_blocks_match_four_corner_bit_for_bit(
        self, grid_h, grid_w, height, width, block_rows, seed
    ):
        """Blocks smaller than the output, including a ragged last one."""
        grid = np.random.default_rng(seed).random((grid_h, grid_w))
        with mock.patch.object(terrain, "BLOCK_ROWS", block_rows):
            actual = _bilinear_upsample(grid, height, width)
        assert np.array_equal(actual, _reference_bilinear_upsample(grid, height, width))

    @settings(max_examples=50, deadline=None)
    @given(
        height=st.integers(0, 40),
        width=st.integers(0, 40),
        block_rows=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_blocked_value_noise_matches_whole_field(self, height, width, block_rows, seed):
        expected = _reference_value_noise(np.random.default_rng(seed), height, width)
        with mock.patch.object(terrain, "BLOCK_ROWS", block_rows):
            actual = value_noise(np.random.default_rng(seed), height, width)
        assert actual.tobytes() == expected.tobytes()

    def test_value_noise_octave_sizes(self):
        # The sizes value_noise actually stretches: 9..65 cells to 900x1200.
        rng = np.random.default_rng(0)
        for cells in (8, 16, 32, 64):
            grid = rng.random((cells + 1, cells + 1))
            assert np.array_equal(
                _bilinear_upsample(grid, 900, 1200),
                _reference_bilinear_upsample(grid, 900, 1200),
            )


class TestRenderFrame:
    @settings(max_examples=200, deadline=None)
    @given(
        land_h=st.integers(1, 40),
        land_w=st.integers(1, 40),
        frame_w=st.integers(1, 12),
        frame_h=st.integers(1, 12),
        center=st.tuples(_coord(-30, 70), _coord(-30, 70)),
        angle=_coord(-3.2, 3.2),
        zoom=_coord(0.1, 4.0),
        gain=_coord(0.5, 1.5),
        offset=_coord(-5, 5),
        seed=st.integers(0, 2**16),
    )
    def test_matches_float_landscape_bit_for_bit(
        self, land_h, land_w, frame_w, frame_h, center, angle, zoom, gain, offset, seed
    ):
        rng = np.random.default_rng(seed)
        landscape = rng.integers(0, 256, (land_h, land_w), dtype=np.uint8)
        state = CameraState(
            center_x=center[0],
            center_y=center[1],
            angle=angle,
            zoom=zoom,
            gain=gain,
            offset=offset,
            segment=0,
        )
        expected = _reference_render_frame(
            landscape, state, frame_w, frame_h, np.random.default_rng(seed)
        )
        actual = render_frame(landscape, state, frame_w, frame_h, np.random.default_rng(seed))
        assert actual.dtype == expected.dtype == np.uint8
        assert np.array_equal(actual, expected)
