"""Tests for the crash-safe execution engine: retry, degrade, watchdog.

Three failure families, one invariant: no infrastructure failure short
of killing the parent may change campaign results or abort the run.

* a worker SIGKILL'd mid-chunk (the OOM-killer shape) retries its chunk
  and the campaign finishes bit-identically;
* a worker that *always* dies exhausts the retry budget and degrades to
  in-process serial execution — still bit-identical;
* a genuinely stalled workload (a real ``time.sleep``, not a simulated
  cycle overrun) is classified ``HANG``/``WATCHDOG`` by the wall-clock
  watchdog without aborting the campaign.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro import telemetry
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.outcomes import HangKind, Outcome
from repro.faultinject.parallel import RetryPolicy, WorkerState
from repro.faultinject.registers import RegKind
from repro.faultinject.watchdog import WatchdogExpired, WatchdogPolicy, call_with_deadline
from repro.runtime.errors import HangDetected
from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload

#: Fast backoff so failure-path tests don't sleep for real.
FAST_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.01, backoff_max_s=0.02)


def _results_equal(first, second) -> None:
    assert first.counts == second.counts
    assert first.running == second.running
    assert first.fired == second.fired
    assert np.array_equal(first.register_histogram, second.register_histogram)
    assert np.array_equal(first.bit_histogram, second.bit_histogram)
    for a, b in zip(first.results, second.results):
        assert a.plan == b.plan and a.outcome == b.outcome and a.cycles == b.cycles
        assert (a.output is None) == (b.output is None)
        if a.output is not None:
            assert np.array_equal(a.output, b.output)


@dataclass(frozen=True)
class KillOnceSpec:
    """Workload that SIGKILLs its worker once, then behaves normally.

    The sentinel file is the cross-process "already died" flag: the
    first worker to run an injection creates it and kills itself
    mid-chunk; every retry sees the sentinel and completes.
    """

    sentinel: str

    def build(self):
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        golden = toy_workload(ctx)
        sentinel = self.sentinel

        def workload(run_ctx):
            if not os.path.exists(sentinel):
                with open(sentinel, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return toy_workload(run_ctx)

        return WorkerState(workload, golden, ctx.cycles)


@dataclass(frozen=True)
class KillAlwaysSpec:
    """Workload that SIGKILLs every worker process, never the parent."""

    parent_pid: int

    def build(self):
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        golden = toy_workload(ctx)
        parent_pid = self.parent_pid

        def workload(run_ctx):
            if os.getpid() != parent_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return toy_workload(run_ctx)

        return WorkerState(workload, golden, ctx.cycles)


@pytest.fixture()
def toy():
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    return spec, golden, cycles


def _reference(golden, cycles, **overrides):
    config = CampaignConfig(n_injections=30, kind=RegKind.GPR, seed=5, workers=1)
    for key, value in overrides.items():
        setattr(config, key, value)
    return run_campaign(toy_workload, golden, cycles, config)


class TestChunkRetry:
    def test_sigkilled_worker_chunk_retries_bit_identically(self, toy, tmp_path):
        _, golden, cycles = toy
        reference = _reference(golden, cycles)
        campaign = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(
                n_injections=30, kind=RegKind.GPR, seed=5, workers=3, retry=FAST_RETRY
            ),
            spec=KillOnceSpec(str(tmp_path / "killed-once")),
        )
        _results_equal(reference, campaign)

    def test_retry_counter_emitted(self, toy, tmp_path):
        _, golden, cycles = toy
        tracer = telemetry.enable()
        before = tracer.registry.counter("campaign.retries")
        try:
            run_campaign(
                toy_workload,
                golden,
                cycles,
                CampaignConfig(
                    n_injections=30, kind=RegKind.GPR, seed=5, workers=3, retry=FAST_RETRY
                ),
                spec=KillOnceSpec(str(tmp_path / "killed-once")),
            )
            assert tracer.registry.counter("campaign.retries") > before
        finally:
            telemetry.disable()

    def test_backoff_delays_are_bounded_and_jittered(self):
        import random

        policy = RetryPolicy(backoff_base_s=0.5, backoff_max_s=2.0, jitter_frac=0.25)
        rng = random.Random(0)
        delays = [policy.delay_s(attempt, rng) for attempt in (1, 2, 3, 4)]
        # Exponential up to the cap, each within [base, base * (1+jitter)].
        for delay, base in zip(delays, (0.5, 1.0, 2.0, 2.0)):
            assert base <= delay <= base * 1.25


class TestDegradedFallback:
    def test_always_dying_workers_degrade_to_serial_bit_identically(self, toy):
        _, golden, cycles = toy
        reference = _reference(golden, cycles)
        campaign = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(
                n_injections=30,
                kind=RegKind.GPR,
                seed=5,
                workers=3,
                retry=RetryPolicy(max_retries=2, backoff_base_s=0.01, backoff_max_s=0.02),
            ),
            spec=KillAlwaysSpec(os.getpid()),
        )
        _results_equal(reference, campaign)

    def test_degraded_counter_emitted(self, toy):
        _, golden, cycles = toy
        tracer = telemetry.enable()
        before = tracer.registry.counter("campaign.degraded")
        try:
            run_campaign(
                toy_workload,
                golden,
                cycles,
                CampaignConfig(
                    n_injections=30,
                    kind=RegKind.GPR,
                    seed=5,
                    workers=3,
                    retry=RetryPolicy(max_retries=1, backoff_base_s=0.01, backoff_max_s=0.02),
                ),
                spec=KillAlwaysSpec(os.getpid()),
            )
            assert tracer.registry.counter("campaign.degraded") > before
        finally:
            telemetry.disable()

    def test_workload_bugs_still_propagate_without_retry(self, toy):
        """Only infrastructure failures retry; library bugs surface once."""
        from tests.faultinject.test_parallel import CrashingSpec, _crashing_workload

        with pytest.raises(SystemError, match="unclassifiable"):
            run_campaign(
                _crashing_workload,
                np.zeros((4, 4), dtype=np.uint8),
                1000,
                CampaignConfig(
                    n_injections=8, kind=RegKind.GPR, seed=0, workers=2, retry=FAST_RETRY
                ),
                spec=CrashingSpec(),
            )


class TestWallClockWatchdog:
    def test_call_with_deadline_passthrough(self):
        assert call_with_deadline(lambda: 42, None) == 42
        assert call_with_deadline(lambda: 42, 5.0) == 42

    def test_call_with_deadline_propagates_exceptions(self):
        with pytest.raises(ZeroDivisionError):
            call_with_deadline(lambda: 1 / 0, 5.0)

    def test_call_with_deadline_raises_on_stall(self):
        start = time.monotonic()
        with pytest.raises(WatchdogExpired):
            call_with_deadline(lambda: time.sleep(5.0), 0.05)
        assert time.monotonic() - start < 1.0  # did not wait the full sleep

    def test_real_stall_classified_hang_watchdog_without_abort(self):
        """A time.sleep stall becomes HANG/WATCHDOG; the campaign finishes."""

        def stalling_workload(ctx):
            time.sleep(1.5)
            return np.zeros((4, 4), dtype=np.uint8)

        campaign = run_campaign(
            stalling_workload,
            np.zeros((4, 4), dtype=np.uint8),
            1000,
            CampaignConfig(
                n_injections=2,
                kind=RegKind.GPR,
                seed=0,
                workers=1,
                watchdog=WatchdogPolicy(soft_deadline_s=0.1),
            ),
        )
        assert campaign.counts.total == 2
        assert campaign.counts.hang == 2
        for result in campaign.results:
            assert result.outcome is Outcome.HANG
            assert result.hang_kind is HangKind.WATCHDOG

    def test_simulated_hang_keeps_simulated_kind(self, toy):
        """The cycle-budget path stays distinct from the wall-clock path."""

        def cycle_hog(ctx):
            while True:
                ctx.tick(10_000)

        campaign = run_campaign(
            cycle_hog,
            np.zeros((4, 4), dtype=np.uint8),
            1000,
            CampaignConfig(n_injections=2, kind=RegKind.GPR, seed=0, workers=1),
        )
        for result in campaign.results:
            assert result.outcome is Outcome.HANG
            assert result.hang_kind is HangKind.SIMULATED

    def test_watchdog_hang_counter_emitted(self):
        def stalling_workload(ctx):
            time.sleep(1.5)
            return np.zeros((4, 4), dtype=np.uint8)

        tracer = telemetry.enable()
        before = tracer.registry.counter("campaign.watchdog_hangs")
        try:
            run_campaign(
                stalling_workload,
                np.zeros((4, 4), dtype=np.uint8),
                1000,
                CampaignConfig(
                    n_injections=1,
                    kind=RegKind.GPR,
                    seed=0,
                    workers=1,
                    watchdog=WatchdogPolicy(soft_deadline_s=0.1),
                ),
            )
            assert tracer.registry.counter("campaign.watchdog_hangs") == before + 1
        finally:
            telemetry.disable()

    def test_watchdog_does_not_change_healthy_results(self, toy):
        """Generous deadlines leave a healthy campaign bit-identical."""
        _, golden, cycles = toy
        reference = _reference(golden, cycles)
        watched = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(
                n_injections=30,
                kind=RegKind.GPR,
                seed=5,
                workers=1,
                watchdog=WatchdogPolicy(soft_deadline_s=60.0),
            ),
        )
        assert reference.counts == watched.counts
        assert reference.running == watched.running

    def test_classify_watchdog_expired_as_hang(self):
        from repro.faultinject.outcomes import classify_exception, hang_kind_for

        outcome, crash_kind = classify_exception(WatchdogExpired(1.0, 0.5))
        assert outcome is Outcome.HANG and crash_kind is None
        assert hang_kind_for(WatchdogExpired(1.0, 0.5)) is HangKind.WATCHDOG
        assert hang_kind_for(HangDetected(10, 5)) is HangKind.SIMULATED
        assert hang_kind_for(ValueError()) is None


class TestWatchdogPolicy:
    def test_from_golden_applies_multiplier_and_floor(self):
        policy = WatchdogPolicy.from_golden(2.0, soft_factor=10.0, hard_factor=2.0)
        assert policy.soft_deadline_s == pytest.approx(20.0)
        assert policy.hard_deadline_s == pytest.approx(40.0)
        tiny = WatchdogPolicy.from_golden(0.0001)
        assert tiny.soft_deadline_s == WatchdogPolicy.MIN_DEADLINE_S

    def test_chunk_deadline_scales_with_size(self):
        policy = WatchdogPolicy(soft_deadline_s=1.0, hard_deadline_s=3.0)
        assert policy.chunk_deadline(5) == pytest.approx(15.0)
        assert WatchdogPolicy(soft_deadline_s=1.0).chunk_deadline(5) is None

    def test_negative_golden_rejected(self):
        with pytest.raises(ValueError):
            WatchdogPolicy.from_golden(-1.0)
