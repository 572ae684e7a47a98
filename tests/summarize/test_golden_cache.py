"""Tests for the process-wide golden-run cache and its counters."""

import numpy as np
import pytest

from repro.analysis.experiments import TINY, QUICK, fig06_output_quality, fig13_diff_visualization
from repro.summarize.approximations import config_for
from repro.faultinject import fastforward
from repro.summarize.golden import (
    clear_golden_cache,
    golden_cache_stats,
    golden_run,
    golden_with_tape,
)
from repro.video.synthetic import make_input1


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_golden_cache()
    yield
    clear_golden_cache()


class TestCacheCounters:
    def test_second_lookup_is_a_hit(self):
        stream = make_input1(n_frames=8)
        config = config_for("VS")
        first = golden_run(stream, config)
        second = golden_run(stream, config)
        assert first is second
        stats = golden_cache_stats()
        assert stats.computes == 1
        assert stats.hits == 1

    def test_clear_then_recompute(self):
        stream = make_input1(n_frames=8)
        config = config_for("VS")
        first = golden_run(stream, config)
        assert golden_cache_stats().computes == 1
        clear_golden_cache()
        assert golden_cache_stats().computes == 0
        second = golden_run(stream, config)
        assert golden_cache_stats().computes == 1
        assert second is not first
        assert second.total_cycles == first.total_cycles
        assert np.array_equal(second.output, first.output)


class TestScaleAwareKey:
    def test_same_input_name_different_scale_does_not_collide(self):
        """TINY and QUICK both name their stream ``input1``; the cache
        must key on the stream's actual size, not just its name."""
        config = config_for("VS")
        tiny = golden_run(make_input1(n_frames=TINY.n_frames), config)
        quick = golden_run(make_input1(n_frames=QUICK.n_frames), config)
        assert golden_cache_stats().computes == 2
        assert tiny.total_cycles != quick.total_cycles


class TestFigureEntryPointsShareGoldens:
    def test_shared_cells_computed_exactly_once(self):
        """fig06 and fig13 overlap on the (input, VS) and (input, VS_SM)
        cells; across both entry points each distinct cell must be
        computed exactly once (2 inputs x 4 algorithms = 8)."""
        fig06_output_quality(TINY)
        computes_after_fig06 = golden_cache_stats().computes
        assert computes_after_fig06 == 8
        fig13_diff_visualization(TINY)
        stats = golden_cache_stats()
        assert stats.computes == 8  # fig13's four cells were all hits
        assert stats.hits >= 4


class TestGoldenWithTape:
    """One entry per workload: the capture is the golden run."""

    def test_capture_first_makes_the_plain_lookup_a_hit(self):
        stream = make_input1(n_frames=8)
        config = config_for("VS")
        taped = golden_with_tape(stream, config)
        assert taped.fast_forward is not None
        assert golden_run(stream, config) is taped
        assert golden_with_tape(stream, config) is taped
        stats = golden_cache_stats()
        assert (stats.computes, stats.hits) == (1, 2)

    def test_plain_first_keeps_its_entry_and_gains_the_tape(self):
        stream = make_input1(n_frames=8)
        config = config_for("VS")
        plain = golden_run(stream, config)
        assert plain.fast_forward is None
        assert golden_with_tape(stream, config) is plain
        assert plain.fast_forward is not None
        assert golden_cache_stats().computes == 2

    def test_a_capture_that_differs_from_the_cached_run_is_refused(self, monkeypatch):
        stream = make_input1(n_frames=8)
        config = config_for("VS")
        plain = golden_run(stream, config)
        real = fastforward.capture_tape

        def drifted(stream, config):
            run = real(stream, config)
            run.total_cycles += 1
            return run

        monkeypatch.setattr(fastforward, "capture_tape", drifted)
        with pytest.raises(RuntimeError, match="diverged from the golden run"):
            golden_with_tape(stream, config)
        assert plain.fast_forward is None

    def test_unsupported_workload_falls_back_to_the_plain_run(self, monkeypatch):
        def unsupported(stream, config):
            raise fastforward.SnapshotUnsupported("no frame boundary")

        monkeypatch.setattr(fastforward, "capture_tape", unsupported)
        stream = make_input1(n_frames=8)
        config = config_for("VS")
        run = golden_with_tape(stream, config)
        assert run.fast_forward is None
        assert golden_run(stream, config) is run
