"""Tests for outcome classification and campaign statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.outcomes import (
    CrashKind,
    Outcome,
    OutcomeCounts,
    RunningRates,
    classify_exception,
    wilson_interval,
)
from repro.runtime.errors import HangDetected, InternalAbortError, SegmentationFault


class TestClassification:
    def test_segfault(self):
        outcome, kind = classify_exception(SegmentationFault(0x100))
        assert outcome is Outcome.CRASH and kind is CrashKind.SEGV

    def test_index_error_is_segv(self):
        outcome, kind = classify_exception(IndexError("list index out of range"))
        assert outcome is Outcome.CRASH and kind is CrashKind.SEGV

    def test_abort(self):
        outcome, kind = classify_exception(InternalAbortError("assert"))
        assert outcome is Outcome.CRASH and kind is CrashKind.ABORT

    @pytest.mark.parametrize(
        "exc",
        [ValueError("x"), ZeroDivisionError(), OverflowError(), np.linalg.LinAlgError("s")],
    )
    def test_builtin_traps_are_aborts(self, exc):
        outcome, kind = classify_exception(exc)
        assert outcome is Outcome.CRASH and kind is CrashKind.ABORT

    def test_hang(self):
        outcome, kind = classify_exception(HangDetected(10, 5))
        assert outcome is Outcome.HANG and kind is None

    def test_unknown_exception_reraised(self):
        with pytest.raises(RuntimeError):
            classify_exception(RuntimeError("a genuine library bug"))


class TestOutcomeCounts:
    def test_add_and_rates(self):
        counts = OutcomeCounts()
        for _ in range(6):
            counts.add(Outcome.MASKED)
        counts.add(Outcome.SDC)
        counts.add(Outcome.CRASH, CrashKind.SEGV)
        counts.add(Outcome.CRASH, CrashKind.ABORT)
        counts.add(Outcome.HANG)
        assert counts.total == 10
        assert counts.rate(Outcome.MASKED) == pytest.approx(0.6)
        assert counts.rate(Outcome.CRASH) == pytest.approx(0.2)
        assert counts.crash_segv == 1 and counts.crash_abort == 1

    def test_rates_sum_to_one(self):
        counts = OutcomeCounts(masked=5, sdc=3, crash_segv=2, hang=1)
        assert sum(counts.rates().values()) == pytest.approx(1.0)

    def test_empty_counts(self):
        counts = OutcomeCounts()
        assert counts.total == 0
        assert counts.rate(Outcome.SDC) == 0.0
        assert counts.segv_fraction_of_crashes() == 0.0

    def test_segv_fraction_no_crashes(self):
        # All-masked campaign: zero crashes must not divide by zero.
        counts = OutcomeCounts(masked=25)
        assert counts.crash == 0
        assert counts.segv_fraction_of_crashes() == 0.0

    def test_segv_fraction_extremes(self):
        assert OutcomeCounts(crash_segv=4).segv_fraction_of_crashes() == 1.0
        assert OutcomeCounts(crash_abort=4).segv_fraction_of_crashes() == 0.0

    def test_segv_fraction(self):
        counts = OutcomeCounts(crash_segv=9, crash_abort=1)
        assert counts.segv_fraction_of_crashes() == pytest.approx(0.9)


class TestWilson:
    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert (0.5 - lo) == pytest.approx(hi - 0.5, abs=1e-9)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 40)
        assert lo < 0.25 < hi

    def test_zero_total(self):
        # Regression: no samples means no rate to bound — the old
        # (0.0, 1.0) answer implied certainty of a valid experiment.
        assert wilson_interval(0, 0) == (0.0, 0.0)

    def test_zero_total_never_divides_by_zero(self):
        for z in (0.0, 1.0, 1.96):
            assert wilson_interval(0, 0, z=z) == (0.0, 0.0)

    def test_zero_z_degenerates_to_point_estimate(self):
        lo, hi = wilson_interval(3, 10, z=0.0)
        assert lo == pytest.approx(0.3)
        assert hi == pytest.approx(0.3)

    def test_narrows_with_samples(self):
        lo_small, hi_small = wilson_interval(5, 10)
        lo_big, hi_big = wilson_interval(500, 1000)
        assert (hi_big - lo_big) < (hi_small - lo_small)

    def test_bounds_clamped(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0


def _recorded_run_by_run(outcomes, crash_kinds) -> RunningRates:
    """The reference: rates appended after every run, one count at a time."""
    counts = OutcomeCounts()
    running = RunningRates()
    for outcome, crash_kind in zip(outcomes, crash_kinds):
        counts.add(outcome, crash_kind)
        running.record(counts)
    return running


class TestRunningRates:
    @settings(max_examples=200, deadline=None)
    @given(
        n_runs=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(any),
    )
    def test_from_outcomes_equals_run_by_run_record(self, n_runs, seed, weights):
        """One NumPy pass over the outcomes gives the very floats that
        recording the counts after every run does."""
        rng = np.random.default_rng(seed)
        p = np.array(weights, dtype=float) / sum(weights)
        outcomes = [list(Outcome)[k] for k in rng.choice(4, size=n_runs, p=p)]
        crash_kinds = [
            list(CrashKind)[k] if outcome is Outcome.CRASH else None
            for outcome, k in zip(outcomes, rng.integers(0, 2, size=n_runs))
        ]
        vectorized = RunningRates.from_outcomes(outcomes)
        reference = _recorded_run_by_run(outcomes, crash_kinds)
        assert vectorized == reference
        assert all(
            type(rate) is float for rates in vectorized.rates.values() for rate in rates
        )

    def test_records_trajectory(self):
        counts = OutcomeCounts()
        running = RunningRates()
        counts.add(Outcome.MASKED)
        running.record(counts)
        counts.add(Outcome.SDC)
        running.record(counts)
        xs, ys = running.series(Outcome.SDC)
        assert list(xs) == [1, 2]
        assert ys[0] == 0.0 and ys[1] == pytest.approx(0.5)

    def test_empty_series(self):
        xs, ys = RunningRates().series(Outcome.SDC)
        assert len(xs) == 0 and len(ys) == 0

    def test_single_sample_series(self):
        counts = OutcomeCounts()
        counts.add(Outcome.SDC)
        running = RunningRates()
        running.record(counts)
        xs, ys = running.series(Outcome.SDC)
        assert list(xs) == [1]
        assert list(ys) == [1.0]
        # The other outcomes track the same checkpoints at rate 0.
        xs_mask, ys_mask = running.series(Outcome.MASKED)
        assert list(xs_mask) == [1]
        assert list(ys_mask) == [0.0]
