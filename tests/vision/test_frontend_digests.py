"""Byte-level pins of the FAST/Harris/BRIEF front end on the paper inputs.

The digests were computed before the front-end kernels were rewritten
for speed; every rewrite must reproduce them exactly.  Two levels:

* ``orb_features`` per frame: ``coords``, ``descriptors`` and ``angles``
  bytes plus the cycles charged, for every frame of both inputs at the
  TINY and QUICK scales;
* the golden run of every (input, algorithm) cell at TINY: the panorama
  bytes plus ``total_cycles``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.experiments import ALGORITHMS, INPUTS, QUICK, TINY, input_stream
from repro.runtime.context import ExecutionContext
from repro.summarize.approximations import config_for
from repro.summarize.golden import clear_golden_cache, golden_run
from repro.vision.orb import orb_features

FEATURE_DIGESTS = {
    ("input1", "tiny"): "d673d31f3eb634bfff05e18df96d87da67cf550c17b5951a36060bda889c9763",
    ("input2", "tiny"): "e8ae0672a24549a0952ef0f645bd704b03962c9cbe730f76060dbd93aa77757d",
    ("input1", "quick"): "a853452947cf32fa7036b72055cf9f71eec926567834ebb23798aa1d8e6f4dd5",
    ("input2", "quick"): "6b933c429cb012a2eba55a698b7154c389bab07c46cf363dcda802da29c1d78d",
}

GOLDEN_DIGESTS = {
    ("input1", "VS"): "5860bc96c4e9f6ad07a5e862bcbb1acd427eac946f6e88ae7c4c8b60c9b8526e",
    ("input1", "VS_RFD"): "fee77761972b38f091a51464b558d236ff6f3eaa5320403c48ab1451990021c3",
    ("input1", "VS_KDS"): "1d673675c6133d09243e46a58c9580c9e67f1983e24a6856a573a93d481f07d8",
    ("input1", "VS_SM"): "cfe1f0500dea96503944a5064d6aa2b1ac6d8c6d89795e0031eb009bfdc7a98e",
    ("input2", "VS"): "5674aa7d78154db73b6639001b24414892ca851b3a6d19d54bcfee6711893fc3",
    ("input2", "VS_RFD"): "da93af6eda85f19810f75190177b6b52032e7b9e3a84f9411cebff444c69ea62",
    ("input2", "VS_KDS"): "3aabc7326090e770326d09d891d43f26a41c60a2a82299beefc1c7fec0061d78",
    ("input2", "VS_SM"): "366ab0317bd4e329e52e24b2d777ead88ea11dd2ca5906b382e11f1844e45c66",
}

_SCALES = {"tiny": TINY, "quick": QUICK}


def feature_digest(input_name: str, scale_name: str) -> str:
    """sha256 over every frame's ORB output bytes and charged cycles."""
    stream = input_stream(input_name, _SCALES[scale_name])
    config = config_for("VS")
    digest = hashlib.sha256()
    for frame in stream.frames:
        ctx = ExecutionContext()
        features = orb_features(
            frame, ctx, n_keypoints=config.n_keypoints, fast_threshold=config.fast_threshold
        )
        digest.update(features.coords.tobytes())
        digest.update(features.descriptors.tobytes())
        digest.update(features.angles.tobytes())
        digest.update(str(ctx.cycles).encode())
    return digest.hexdigest()


def golden_digest(input_name: str, algorithm: str) -> str:
    """sha256 over one golden run's panorama bytes and total cycles."""
    clear_golden_cache()
    run = golden_run(input_stream(input_name, TINY), config_for(algorithm))
    digest = hashlib.sha256()
    digest.update(run.output.tobytes())
    digest.update(str(run.output.shape).encode())
    digest.update(str(run.total_cycles).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("input_name,scale_name", sorted(FEATURE_DIGESTS))
def test_orb_features_digest(input_name, scale_name):
    assert feature_digest(input_name, scale_name) == FEATURE_DIGESTS[(input_name, scale_name)]


@pytest.mark.parametrize("input_name,algorithm", sorted(GOLDEN_DIGESTS))
def test_golden_run_digest(input_name, algorithm):
    assert golden_digest(input_name, algorithm) == GOLDEN_DIGESTS[(input_name, algorithm)]


def test_digest_table_covers_every_cell():
    assert {key[0] for key in FEATURE_DIGESTS} == set(INPUTS)
    assert set(GOLDEN_DIGESTS) == {(i, a) for i in INPUTS for a in ALGORITHMS}
