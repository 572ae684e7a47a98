"""The tape capture is the golden run: a generated equivalence oracle.

A campaign takes its golden reference from the snapshot-tape capture
(:func:`repro.summarize.golden.golden_with_tape`), which runs the
pipeline armed with the snapshot recorder and a stage probe.  That is
sound only if the armed run computes exactly what a plain golden run
computes.  This oracle checks it over generated inputs, algorithms and
frame counts: output bytes, cycles, the per-scope cost profile (Fig. 8),
the result's frame counts, and the stage signature that probed
campaigns compare injected runs against.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ALGORITHMS, INPUTS, TINY
from repro.faultinject.fastforward import capture_tape
from repro.faultinject.monitor import golden_signature
from repro.forensics import probes
from repro.summarize.approximations import config_for
from repro.summarize.golden import clear_golden_cache, golden_run
from repro.video.synthetic import cached_input


#: The space holds 72 cases.  Tier-1 samples a tenth of the profile's
#: budget; ``--hypothesis-profile ci-deep`` (1000 examples) covers all.
@settings(deadline=None, max_examples=max(1, settings.default.max_examples // 10))
@given(
    input_name=st.sampled_from(INPUTS),
    algorithm=st.sampled_from(ALGORITHMS),
    n_frames=st.integers(4, 12),
)
def test_capture_equals_plain_golden(input_name, algorithm, n_frames):
    stream = cached_input(input_name, n_frames=n_frames, frame_size=TINY.frame_size)
    config = config_for(algorithm)
    clear_golden_cache()
    # Probes only observe, so the probed plain run is the plain run.
    probe = probes.StageProbe()
    with probes.capturing(probe):
        plain = golden_run(stream, config)
    captured = capture_tape(stream, config)

    assert captured.output.dtype == plain.output.dtype
    assert captured.output.shape == plain.output.shape
    assert captured.output.tobytes() == plain.output.tobytes()
    assert captured.total_cycles == plain.total_cycles
    assert captured.profile.by_scope() == plain.profile.by_scope()
    for field in ("frames_stitched", "frames_discarded", "num_minis"):
        assert getattr(captured.result, field) == getattr(plain.result, field), field
    tape_signature = golden_signature(None, captured.output, captured.fast_forward)
    assert tape_signature == probe.signature()
