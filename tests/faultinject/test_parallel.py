"""Tests for the parallel campaign engine.

The contract under test: for a fixed seed, ``run_campaign`` with any
worker count produces a :class:`CampaignResult` bit-identical to the
serial path — same outcome sequence, running-rate series, histograms
and SDC outputs — and worker failures surface as clean errors rather
than hangs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from repro.faultinject.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.parallel import (
    VSWorkloadSpec,
    WorkerState,
    chunks_from_groups,
    default_workers,
    plan_groups,
    resolve_workers,
)
from repro.faultinject.registers import RegKind, Role
from repro.runtime.context import Cell, ExecutionContext
from repro.runtime.errors import SegmentationFault


def toy_workload(ctx: ExecutionContext) -> np.ndarray:
    """Deterministic 8x8 workload whose registers can mask/corrupt/crash."""
    out = np.zeros((8, 8), dtype=np.uint8)
    row = Cell(0)
    end = Cell(8)
    while row.value < end.value:
        ctx.tick(1000)
        window = ctx.window("toy.row")
        if window is not None:
            window.gpr_cell("row", row, role=Role.CONTROL)
            window.gpr_cell("end", end, role=Role.CONTROL)
            window.gpr_array("out_px", out)
            ctx.checkpoint(window)
        r = int(row.value)
        if r < 0 or r >= 8:
            raise SegmentationFault(r, "row out of range")
        out[r, :] = (np.arange(8) + r) % 251
        row.value = r + 1
    return out


@dataclass(frozen=True)
class ToyWorkloadSpec:
    """Picklable spec for the toy workload (workers rebuild the golden)."""

    def build(self):
        ctx = ExecutionContext()
        golden = toy_workload(ctx)
        return WorkerState(toy_workload, golden, ctx.cycles)


def _crashing_workload(ctx: ExecutionContext) -> np.ndarray:
    raise SystemError("simulated unclassifiable library bug")


@dataclass(frozen=True)
class CrashingSpec:
    """Spec whose workload dies with an exception no outcome class covers."""

    def build(self):
        golden = np.zeros((4, 4), dtype=np.uint8)
        return WorkerState(_crashing_workload, golden, 1000)


@dataclass(frozen=True)
class BrokenBuildSpec:
    """Spec whose reconstruction itself fails in the worker."""

    def build(self):
        raise FileNotFoundError("pretend the input asset is missing")


def _campaigns_equal(first: CampaignResult, second: CampaignResult) -> None:
    assert first.counts == second.counts
    assert first.running == second.running
    assert first.fired == second.fired
    assert np.array_equal(first.register_histogram, second.register_histogram)
    assert np.array_equal(first.bit_histogram, second.bit_histogram)
    assert len(first.results) == len(second.results)
    for a, b in zip(first.results, second.results):
        assert a.plan == b.plan
        assert a.outcome == b.outcome
        assert a.crash_kind == b.crash_kind
        assert a.record.fired == b.record.fired
        assert a.record.in_study == b.record.in_study
        assert a.cycles == b.cycles
        assert (a.output is None) == (b.output is None)
        if a.output is not None:
            assert np.array_equal(a.output, b.output)


class TestToyEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        serial = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=9, workers=1),
        )
        parallel = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=9, workers=4),
            spec=spec,
        )
        _campaigns_equal(serial, parallel)

    def test_sdc_output_hashes_match(self):
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        config = CampaignConfig(
            n_injections=80, kind=RegKind.GPR, seed=0, keep_sdc_outputs=True
        )
        serial = run_campaign(toy_workload, golden, cycles, config)
        parallel = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(
                n_injections=80, kind=RegKind.GPR, seed=0, keep_sdc_outputs=True, workers=3
            ),
            spec=spec,
        )
        serial_hashes = [
            hash(r.output.tobytes()) for r in serial.sdc_results if r.output is not None
        ]
        parallel_hashes = [
            hash(r.output.tobytes()) for r in parallel.sdc_results if r.output is not None
        ]
        assert serial_hashes and serial_hashes == parallel_hashes

    def test_without_spec_falls_back_to_serial(self):
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        campaign = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(n_injections=10, kind=RegKind.GPR, seed=1, workers=8),
        )
        assert campaign.counts.total == 10


class TestVSEquivalence:
    def test_tiny_vs_campaign_identical_across_worker_counts(self):
        from repro.analysis.experiments import TINY, input_stream, vs_workload
        from repro.summarize.approximations import config_for
        from repro.summarize.golden import golden_run

        stream = input_stream("input1", TINY)
        config = config_for("VS")
        golden = golden_run(stream, config)
        spec = VSWorkloadSpec.for_stream(stream, config)
        assert spec is not None

        serial = run_campaign(
            vs_workload(stream, config),
            golden.output,
            golden.total_cycles,
            CampaignConfig(n_injections=6, kind=RegKind.GPR, seed=21, workers=1),
        )
        parallel = run_campaign(
            vs_workload(stream, config),
            golden.output,
            golden.total_cycles,
            CampaignConfig(n_injections=6, kind=RegKind.GPR, seed=21, workers=4),
            spec=spec,
        )
        _campaigns_equal(serial, parallel)


class TestFailureSurfacing:
    def test_workload_bug_propagates_not_hangs(self):
        spec = CrashingSpec()
        with pytest.raises(SystemError, match="unclassifiable"):
            run_campaign(
                _crashing_workload,
                np.zeros((4, 4), dtype=np.uint8),
                1000,
                CampaignConfig(n_injections=8, kind=RegKind.GPR, seed=0, workers=2),
                spec=spec,
            )

    def test_broken_spec_build_propagates(self):
        spec = BrokenBuildSpec()
        with pytest.raises(FileNotFoundError):
            run_campaign(
                toy_workload,
                np.zeros((8, 8), dtype=np.uint8),
                8000,
                CampaignConfig(n_injections=8, kind=RegKind.GPR, seed=0, workers=2),
                spec=spec,
            )


class TestWorkerResolution:
    def test_explicit_request_wins(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "7"}):
            assert resolve_workers(3) == 3

    def test_workers_clamped_to_planned_injections(self):
        """8 processes for a 3-injection campaign waste startup cost."""
        assert resolve_workers(8, max_useful=3) == 3
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "8"}):
            assert resolve_workers(None, max_useful=3) == 3

    def test_clamp_never_raises_workers(self):
        assert resolve_workers(2, max_useful=100) == 2
        assert resolve_workers(4, max_useful=4) == 4

    def test_clamp_does_not_hide_invalid_requests(self):
        with pytest.raises(ValueError):
            resolve_workers(0, max_useful=3)
        with pytest.raises(ValueError):
            resolve_workers(-2, max_useful=3)

    def test_degenerate_max_useful_ignored(self):
        # A 0-injection campaign still resolves a valid worker count.
        assert resolve_workers(4, max_useful=0) == 4
        assert resolve_workers(4, max_useful=None) == 4

    def test_env_override(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "5"}):
            assert resolve_workers(None) == 5
            assert default_workers() == 5

    def test_library_default_is_serial(self):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS"}
        with mock.patch.dict(os.environ, env, clear=True):
            assert resolve_workers(None) == 1
            assert default_workers() >= 1

    def test_garbage_env_rejected(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "lots"}):
            with pytest.raises(ValueError):
                resolve_workers(None)


class TestMeteredChunkTracerRestore:
    def test_mid_chunk_exception_restores_parent_tracer(self):
        """A chunk that dies mid-run must not leak its chunk-local bus.

        Regression guard: an observed chunk runs under a chunk-local
        buffering bus; if the chunk raises, the parent's bus (and the
        tracer on it) must still be restored (try/finally), otherwise
        every later stage in the process meters into a zombie bus.
        """
        from repro import telemetry
        from repro.faultinject.parallel import run_injection_chunk, run_observed
        from repro.observe import events

        parent_tracer = telemetry.enable()
        parent_bus = events.current()
        try:
            spec = CrashingSpec()
            state = spec.build()
            golden, cycles = state.golden_output, state.golden_cycles
            config = CampaignConfig(n_injections=2, kind=RegKind.GPR, seed=0)
            plans = [
                InjectionPlan(target_cycle=0, kind=RegKind.GPR, register=0, bit=0)
            ]
            with pytest.raises(SystemError, match="unclassifiable"):
                run_observed(True, run_injection_chunk, spec, config, list(enumerate(plans)))
            assert events.current() is parent_bus
            assert telemetry.get_tracer() is parent_tracer
        finally:
            telemetry.disable()

    def test_successful_chunk_also_restores(self):
        from repro import telemetry
        from repro.faultinject.parallel import run_injection_chunk, run_observed
        from repro.observe import events

        parent_tracer = telemetry.enable()
        parent_bus = events.current()
        try:
            spec = ToyWorkloadSpec()
            config = CampaignConfig(n_injections=1, kind=RegKind.GPR, seed=0)
            plans = [
                InjectionPlan(target_cycle=0, kind=RegKind.GPR, register=0, bit=0)
            ]
            results, chunk_events = run_observed(
                True, run_injection_chunk, spec, config, list(enumerate(plans))
            )
            assert len(results) == 1
            kind, snapshot = chunk_events[-1]
            assert kind == "metrics"
            assert snapshot["counters"].get("campaign.runs") == 1
            assert events.current() is parent_bus
            assert telemetry.get_tracer() is parent_tracer
        finally:
            telemetry.disable()

    def test_unobserved_chunk_installs_no_bus(self):
        from repro.faultinject.parallel import run_injection_chunk, run_observed
        from repro.observe import events

        seen = []

        def spy(spec, config, chunk):
            seen.append(events.current())
            return run_injection_chunk(spec, config, chunk)

        previous = events.uninstall()
        try:
            spec = ToyWorkloadSpec()
            config = CampaignConfig(n_injections=1, kind=RegKind.GPR, seed=0)
            plans = [
                InjectionPlan(target_cycle=0, kind=RegKind.GPR, register=0, bit=0)
            ]
            results, chunk_events = run_observed(
                False, spy, spec, config, list(enumerate(plans))
            )
        finally:
            events.restore(previous)
        assert len(results) == 1
        assert chunk_events == []
        assert seen == [None]


class TestChunking:
    def test_chunks_preserve_order_and_cover_all(self):
        from repro.faultinject.injector import random_plan

        rng = np.random.default_rng(0)
        plans = [random_plan(rng, 1000, RegKind.GPR) for _ in range(23)]
        config = CampaignConfig(n_injections=23, kind=RegKind.GPR, workers=4)
        groups, _ = plan_groups(None, config, plans)
        chunks = chunks_from_groups(plans, groups)
        flattened = [pair for chunk in chunks for pair in chunk]
        assert [index for index, _ in flattened] == list(range(23))
        assert [plan for _, plan in flattened] == plans

    def test_empty(self):
        config = CampaignConfig(n_injections=0, kind=RegKind.GPR, workers=4)
        assert plan_groups(None, config, []) == ([], 4)
