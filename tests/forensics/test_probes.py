"""Tests for stage-boundary probes and checksum semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forensics import probes
from repro.forensics.probes import StageProbe, capturing, checksum_parts


class TestChecksumParts:
    def test_deterministic(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert checksum_parts(arr, 7, "tag") == checksum_parts(arr.copy(), 7, "tag")

    def test_dtype_participates(self):
        ones_i = np.zeros(4, dtype=np.int64)
        ones_f = np.zeros(4, dtype=np.float64)
        # Same raw bytes (all zero), different dtype: must not alias.
        assert ones_i.tobytes() == ones_f.tobytes()
        assert checksum_parts(ones_i) != checksum_parts(ones_f)

    def test_shape_participates(self):
        arr = np.arange(12, dtype=np.uint8)
        assert checksum_parts(arr) != checksum_parts(arr.reshape(3, 4))

    def test_noncontiguous_array_matches_contiguous_copy(self):
        arr = np.arange(16, dtype=np.int32).reshape(4, 4)
        assert checksum_parts(arr[:, ::2]) == checksum_parts(arr[:, ::2].copy())

    def test_scalar_type_tags_distinct(self):
        assert checksum_parts(1) != checksum_parts("1")
        assert checksum_parts(1) != checksum_parts(1.0)
        assert checksum_parts(b"x") != checksum_parts("x")

    def test_numpy_scalars_match_python_scalars(self):
        assert checksum_parts(np.int64(42)) == checksum_parts(42)
        assert checksum_parts(np.float64(0.5)) == checksum_parts(0.5)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="unprobeable"):
            checksum_parts(object())


class TestStageProbe:
    def test_records_in_execution_order(self):
        probe = StageProbe()
        probe.record("fast", 1)
        probe.record("orb", 2)
        probe.record("fast", 3)
        assert probe.events == [("fast", 1), ("orb", 2), ("fast", 3)]
        assert probe.last_stage == "fast"

    def test_empty_probe(self):
        assert StageProbe().last_stage is None
        signature = StageProbe().signature()
        assert set(signature) == set(probes.STAGES)
        assert all(value == () for value in signature.values())

    def test_signature_groups_by_stage(self):
        probe = StageProbe()
        probe.record("fast", 1)
        probe.record("orb", 2)
        probe.record("fast", 3)
        signature = probe.signature()
        assert signature["fast"] == (1, 3)
        assert signature["orb"] == (2,)
        assert signature["stitch"] == ()


class TestCapturing:
    def test_record_is_noop_when_inactive(self):
        assert not probes.active()
        probes.record("fast", 123)  # must not raise or leak anywhere

    def test_capturing_activates_and_restores(self):
        probe = StageProbe()
        assert not probes.active()
        with capturing(probe):
            assert probes.active()
            probes.record("match", 5)
        assert not probes.active()
        assert probe.events == [("match", probes.checksum_parts(5))]

    def test_none_probe_is_noop(self):
        with capturing(None):
            assert not probes.active()

    def test_nested_capture_restores_outer(self):
        outer, inner = StageProbe(), StageProbe()
        with capturing(outer):
            probes.record("fast", 1)
            with capturing(inner):
                probes.record("orb", 2)
            probes.record("warp", 3)
        assert [stage for stage, _ in outer.events] == ["fast", "warp"]
        assert [stage for stage, _ in inner.events] == ["orb"]

    def test_capture_run_returns_probe(self):
        probe = probes.capture_run(lambda: probes.record("stitch", 9))
        assert probe.last_stage == "stitch"
