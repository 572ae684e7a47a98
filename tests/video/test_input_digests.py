"""Pinned digests of the synthetic inputs and landscapes.

Every golden run, snapshot tape and campaign record downstream is a
function of these bytes, so a rasterizer or resampler rewrite must
reproduce them exactly.  The digests were computed before the
vectorized ``draw``/``terrain``/``camera`` kernels replaced the loop
versions.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.analysis.experiments import QUICK, TINY
from repro.video.synthetic import make_input
from repro.video.terrain import make_landscape

INPUT_DIGESTS = {
    ("tiny", "input1"): "ebf7c70b835c3807a9c112cb5c88a1a7665a6deae53b54c8804d1c44d314b20e",
    ("tiny", "input2"): "bfc7523dd9dc4c8f33acafeda7c2e43ab3b586532ff51812eaa5c2bd57bf2582",
    ("quick", "input1"): "d958721baaa5932668ffb4f19790432b6eca9d880eafe6df020b252a55684bcf",
    ("quick", "input2"): "cf79992f9cf7d02d87af32ff7cce9a26bea616e9143d10efe8d32472dbc19e6f",
}

LANDSCAPE_DIGESTS = {
    1: "6703ce7c1239c4e79f7f69fc82fec1bda8c6a9ee339cf26e349f7edc7d5587e5",
    5: "fe0c0472e4b4bbfee47cae0152790a370e423ee7eb71f879388095e6ed59c110",
    9: "d72f4e44a843784ea1011f7b2d61f1146a3e8251e3627acbc26588053f8666a6",
    33: "b9f1b3d4c59af84ff0c656ed12b499fcfed5fc83c3b1f2c159b6591a0e346140",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("scale", [TINY, QUICK], ids=lambda s: s.name)
@pytest.mark.parametrize("which", ["input1", "input2"])
def test_input_bytes_are_pinned(scale, which):
    stream = make_input(which, n_frames=scale.n_frames, frame_size=scale.frame_size)
    assert len(stream) == scale.n_frames
    frame_w, frame_h = scale.frame_size
    assert all(frame.shape == (frame_h, frame_w) for frame in stream.frames)
    assert all(frame.dtype == np.uint8 for frame in stream.frames)
    assert _digest(stream.frames) == INPUT_DIGESTS[(scale.name, which)]


@pytest.mark.parametrize("seed", sorted(LANDSCAPE_DIGESTS))
def test_landscape_bytes_are_pinned(seed):
    landscape = make_landscape(seed)
    assert landscape.shape == (900, 1200)
    assert landscape.dtype == np.uint8
    assert _digest([landscape]) == LANDSCAPE_DIGESTS[seed]


def test_landscape_render_holds_one_float_field():
    """Memory gate: rendering a landscape peaks within 1.5 times its one
    float64 field (8.2 MiB at 900x1200), traced by ``tracemalloc``.
    Whole-field passes made it 34.0 MiB."""
    make_landscape(11)  # imports and first-call caches outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        landscape = make_landscape(11)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    field = landscape.size * np.dtype(np.float64).itemsize
    assert peak <= 1.5 * field, (peak / 2**20, field / 2**20)
