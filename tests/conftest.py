"""Shared fixtures: tiny synthetic inputs, contexts and RNGs.

Expensive artifacts (streams, feature sets, golden runs) are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.runtime.context import CostProfile, ExecutionContext
from repro.summarize.config import VSConfig
from repro.summarize.golden import clear_golden_cache
from repro.video.synthetic import make_input1, make_input2

#: A deeper search for CI jobs that pick it with ``--hypothesis-profile
#: ci-deep`` (tests that pin ``max_examples`` keep their own budget).
settings.register_profile("ci-deep", max_examples=1000, deadline=None)


@pytest.fixture()
def ctx() -> ExecutionContext:
    """A fresh plain execution context."""
    return ExecutionContext()


@pytest.fixture()
def profiled_ctx() -> ExecutionContext:
    """A context with an attached cost profile."""
    return ExecutionContext(profile=CostProfile())


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic RNG."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def textured_image() -> np.ndarray:
    """A feature-rich grayscale test image (session-scoped, read-only)."""
    gen = np.random.default_rng(7)
    image = (40 + 170 * gen.random((120, 160))).astype(np.uint8)
    # Stamp some strong corners.
    for _ in range(60):
        x = int(gen.integers(5, 150))
        y = int(gen.integers(5, 110))
        image[y : y + 6, x : x + 6] = int(gen.integers(0, 256))
    image.setflags(write=False)
    return image


@pytest.fixture(scope="session")
def tiny_stream1():
    """A small Input-1-like stream (session-scoped, frames read-only)."""
    return make_input1(n_frames=16)


@pytest.fixture(scope="session")
def tiny_stream2():
    """A small Input-2-like stream (session-scoped, frames read-only)."""
    return make_input2(n_frames=16)


@pytest.fixture(scope="session")
def tiny_config() -> VSConfig:
    """The baseline config used by the tiny integration tests."""
    return VSConfig()


@pytest.fixture(autouse=True)
def _fresh_golden_cache():
    """Isolate golden-run caching between tests."""
    yield
    clear_golden_cache()
