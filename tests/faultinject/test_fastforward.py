"""Differential suite: production campaigns against an unrestored oracle.

Every injected run of a campaign resumes through boundary fan-out (see
``src/repro/faultinject/fastforward.py``): it restores the last golden
frame boundary before its target cycle, runs only the live suffix, and
may synthesize a golden tail once it re-converges.  The contract is
that none of this is visible in the results.  The oracle is a
:class:`FaultMonitor` without a fast-forward handle — every run executes
from cycle 0 — driven per plan with the campaign's own
``(seed + 1) * 1_000_003 + index`` RNG derivation.  The property below
generates (approximation, register kind, seed, plan subset, worker
count, probe, interrupt point) and requires the campaign's serialized
records to equal the oracle's, outcome classes, cycle counts, SDC
payloads and divergence records included.

Plans no uniform draw reaches on the tiny workload are pinned as
targeted oracle tests: a genuine HANG, and a target before the first
skippable boundary.  The snapshot-restore property and the boundary
lookup are checked directly.
"""

from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.experiments import TINY, input_stream, vs_workload
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.injector import FaultInjector, InjectionPlan
from repro.faultinject.journal import ABORT_AFTER_ENV, CampaignInterrupted, serialize_result
from repro.faultinject.monitor import FaultMonitor
from repro.faultinject.outcomes import HangKind, Outcome
from repro.faultinject.parallel import VSWorkloadSpec
from repro.faultinject.registers import RegKind
from repro.runtime.context import ExecutionContext
from repro.summarize.approximations import config_for
from repro.summarize.golden import golden_fast_forward, golden_run

#: The VS variants the property draws from.
APPROXIMATIONS = ("VS", "VS_KDS")


@functools.lru_cache(maxsize=None)
def _workload(approximation: str):
    """Tiny workload for one variant: (stream, config, golden, workload, spec)."""
    stream = input_stream("input1", TINY)
    config = config_for(approximation)
    golden = golden_run(stream, config)
    spec = VSWorkloadSpec.for_stream(stream, config)
    assert spec is not None
    return stream, config, golden, vs_workload(stream, config), spec


@pytest.fixture(scope="module")
def vs():
    return _workload("VS")


#: (approximation, kind, seed, index, probe) -> the oracle's serialized
#: record.  Plans of one seed are a prefix-stable sequence, so examples
#: sharing a seed share oracle runs.
_ORACLE: dict[tuple, dict] = {}


def _oracle_record(approximation: str, config: CampaignConfig, index: int, plan) -> dict:
    key = (approximation, config.kind, config.seed, index, config.probe)
    if key not in _ORACLE:
        _, _, golden, workload, _ = _workload(approximation)
        monitor = FaultMonitor(
            workload, golden.output, golden.total_cycles, probe=config.probe
        )
        rng = np.random.default_rng((config.seed + 1) * 1_000_003 + index)
        _ORACLE[key] = serialize_result(monitor.run_injected(plan, rng))
    return _ORACLE[key]


def _run(approximation: str, config: CampaignConfig, journal: Path | None, resume=False):
    _, _, golden, workload, spec = _workload(approximation)
    return run_campaign(
        workload,
        golden.output,
        golden.total_cycles,
        config,
        spec=spec,
        journal_path=journal,
        resume=resume,
    )


@settings(
    derandomize=True,
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    approximation=st.sampled_from(APPROXIMATIONS),
    kind=st.sampled_from([RegKind.GPR, RegKind.FPR]),
    seed=st.integers(0, 2**16),
    n_injections=st.integers(1, 6),
    workers=st.sampled_from([1, 2]),
    probe=st.booleans(),
    interrupt_after=st.sampled_from([None, 1, 2]),
)
# Masked, SDC and crash runs, in a journaled pool interrupted mid-way.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=8,
    n_injections=16,
    workers=2,
    probe=False,
    interrupt_after=1,
)
# Divergence records, on the other variant, in-process.
@example(
    approximation="VS_KDS",
    kind=RegKind.FPR,
    seed=10,
    n_injections=6,
    workers=1,
    probe=True,
    interrupt_after=None,
)
def test_campaign_records_match_oracle(
    approximation, kind, seed, n_injections, workers, probe, interrupt_after
):
    """The plan subset is the first ``n_injections`` plans of ``seed``."""
    config = CampaignConfig(
        n_injections=n_injections, kind=kind, seed=seed, workers=workers, probe=probe
    )
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "campaign.jsonl" if interrupt_after is not None else None
        try:
            with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: str(interrupt_after or "")}):
                campaign = _run(approximation, config, journal)
        except CampaignInterrupted:
            campaign = _run(approximation, config, journal, resume=True)
    records = [serialize_result(result) for result in campaign.results]
    expected = [
        _oracle_record(approximation, config, index, result.plan)
        for index, result in enumerate(campaign.results)
    ]
    assert len(records) == n_injections
    assert records == expected


class TestHangEquivalence:
    """A directed control-register flip that produces a genuine HANG.

    Natural uniform draws on the tiny workload never hang (RANSAC
    converges before its budget), so the plan is aimed at a live
    ``vision.ransac.hypotheses`` checkpoint: flipping bit 63 of
    ``ransac_iter`` drives the iteration counter hugely negative and the
    hypothesis loop burns simulated cycles until the watchdog trips.
    """

    class _CheckpointLog:
        observing = True

        def __init__(self) -> None:
            self.events: list[tuple[str, int]] = []

        def visit(self, ctx, window) -> None:
            self.events.append((window.site, ctx.cycles))

    def _hang_plan(self, workload, fast_forward) -> InjectionPlan:
        log = self._CheckpointLog()
        workload(ExecutionContext(injector=log))
        hypothesis_cycles = [
            cycle for site, cycle in log.events if site == "vision.ransac.hypotheses"
        ]
        assert hypothesis_cycles, "tiny workload must reach RANSAC"
        target = hypothesis_cycles[len(hypothesis_cycles) // 2]
        # The slot ransac_iter occupies is decided by the register file's
        # first-bind round-robin; read it off the captured tape rather
        # than hard-coding an allocation-order-dependent number.
        assigned = fast_forward.tape.boundaries[-1].regfile[0]
        register = assigned[(RegKind.GPR, "vision.ransac.hypotheses", "ransac_iter")]
        return InjectionPlan(
            target_cycle=target, kind=RegKind.GPR, register=register, bit=63
        )

    def test_hang_outcome_identical(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        assert fast_forward is not None
        plan = self._hang_plan(workload, fast_forward)
        assert fast_forward.boundary_for(plan.target_cycle) is not None

        full = FaultMonitor(workload, golden.output, golden.total_cycles)
        fast = FaultMonitor(
            workload, golden.output, golden.total_cycles, fast_forward=fast_forward
        )
        full_result = full.run_injected(plan, np.random.default_rng(123))
        fast_result = fast.run_injected(plan, np.random.default_rng(123))
        assert full_result.outcome is Outcome.HANG
        assert full_result.hang_kind is HangKind.SIMULATED
        assert serialize_result(full_result) == serialize_result(fast_result)


class TestPreFirstBoundary:
    def test_pre_first_boundary_plan_runs_full_and_matches(self, vs):
        """A target before the first skippable boundary cannot resume —
        the monitor must fall back to a full run and still be
        bit-identical to the oracle."""
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        plan = InjectionPlan(target_cycle=1, kind=RegKind.GPR, register=0, bit=0)
        assert fast_forward.boundary_index_for(plan.target_cycle) is None
        production = FaultMonitor(
            workload, golden.output, golden.total_cycles, fast_forward=fast_forward
        )
        oracle = FaultMonitor(workload, golden.output, golden.total_cycles)
        a = production.run_injected(plan, np.random.default_rng(7))
        b = oracle.run_injected(plan, np.random.default_rng(7))
        assert serialize_result(a) == serialize_result(b)


class TestSnapshotRestore:
    def test_every_boundary_reproduces_golden_run(self, vs):
        """Restoring any boundary under a never-firing injector must
        complete the run with the golden output and the golden cycle
        count — the snapshot captured the frame-boundary state exactly.
        """
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        assert fast_forward is not None
        tape = fast_forward.tape
        assert len(tape.boundaries) >= 2

        never = tape.golden_cycles * 10
        for index in range(1, len(tape.boundaries)):
            plan = InjectionPlan(
                target_cycle=never, kind=RegKind.GPR, register=0, bit=0
            )
            injector = FaultInjector(plan, rng=np.random.default_rng(0))
            ctx = ExecutionContext(
                injector=injector, watchdog_cycles=tape.golden_cycles * 6
            )
            output = fast_forward.fanout(index).resume_member(ctx)
            assert not injector.record.fired
            assert ctx.cycles == tape.golden_cycles
            assert np.array_equal(output, golden.output)

    def test_boundary_lookup_is_strictly_before(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        cycles = fast_forward.tape.boundary_cycles
        assert fast_forward.boundary_for(0) is None
        assert fast_forward.boundary_for(cycles[1]) is None
        assert fast_forward.boundary_for(cycles[1] + 1).cycles == cycles[1]
        # A target exactly on a boundary resolves to the previous one.
        last = fast_forward.boundary_for(cycles[-1])
        assert last is not None and last.cycles == cycles[-2]


class TestTelemetryCounters:
    def test_fastforward_counters_surface(self, vs):
        stream, config, golden, workload, spec = vs
        # A fresh tracer, so the counts cover this campaign alone even
        # when REPRO_TRACE=1 has tracing on for the whole session.
        tracer, previous = telemetry.swap_in_fresh_tracer()
        try:
            run_campaign(
                workload,
                golden.output,
                golden.total_cycles,
                CampaignConfig(n_injections=8, kind=RegKind.GPR, seed=8),
                spec=spec,
            )
            registry = tracer.registry
        finally:
            telemetry.restore_tracer(previous)
        hits = registry.counter("campaign.fastforward.hits")
        full_runs = registry.counter("campaign.fastforward.full_runs")
        assert hits + full_runs == 8
        assert hits >= 1
        assert registry.counter("campaign.fastforward.skipped_cycles") > 0
