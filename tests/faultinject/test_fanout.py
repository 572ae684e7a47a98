"""Boundary fan-out scheduler: grouped dispatch, shared restores, telemetry.

Campaign records are checked against the unrestored oracle by the
differential suite in ``test_fastforward.py``.  This module covers the
scheduler pieces around it: group partitioning edge cases, contiguous
groups for tapeless workloads, worker clamping to the group count,
group-granularity journal checkpoints, and the fan-out counters and
per-boundary amortization section of ``repro trace summarize``.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.analysis.experiments import TINY, input_stream, vs_workload
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.journal import load_journal
from repro.faultinject.parallel import (
    VSWorkloadSpec,
    contiguous_groups,
    group_plan_indices,
    plan_groups,
    resolve_workers,
)
from repro.faultinject.registers import RegKind
from repro.summarize.approximations import config_for
from repro.summarize.golden import clear_golden_cache, golden_fast_forward, golden_run
from repro.telemetry.export import render_summary, summarize_trace, write_trace


@pytest.fixture(scope="module")
def vs():
    """Shared tiny VS workload: (stream, config, golden, workload, spec)."""
    stream = input_stream("input1", TINY)
    config = config_for("VS")
    golden = golden_run(stream, config)
    spec = VSWorkloadSpec.for_stream(stream, config)
    assert spec is not None
    return stream, config, golden, vs_workload(stream, config), spec


def _config(**overrides) -> CampaignConfig:
    defaults = dict(n_injections=16, kind=RegKind.GPR, seed=8)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _plan(cycle: int) -> InjectionPlan:
    return InjectionPlan(target_cycle=cycle, kind=RegKind.GPR, register=0, bit=0)


class TestGroupPartition:
    """group_plan_indices edge cases against a stub boundary lookup."""

    @staticmethod
    def _lookup(cycle: int) -> int | None:
        # Boundaries at cycles 100/200/300 (indices 1/2/3); targets at
        # or below 100 have no eligible boundary.
        if cycle <= 100:
            return None
        return min(cycle // 100, 3)

    def test_zero_plans(self):
        assert group_plan_indices(self._lookup, []) == []

    def test_all_plans_share_one_boundary(self):
        plans = [_plan(150), _plan(199), _plan(101)]
        assert group_plan_indices(self._lookup, plans) == [[0, 1, 2]]

    def test_no_eligible_boundary_shares_fallback_group(self):
        plans = [_plan(5), _plan(100), _plan(1)]
        assert group_plan_indices(self._lookup, plans) == [[0, 1, 2]]

    def test_groups_ordered_by_first_member_and_cover_all_plans(self):
        plans = [_plan(250), _plan(50), _plan(110), _plan(299), _plan(320)]
        groups = group_plan_indices(self._lookup, plans)
        assert groups == [[0, 3], [1], [2], [4]]
        covered = sorted(index for group in groups for index in group)
        assert covered == list(range(len(plans)))

    def test_real_tape_lookup_honours_strictly_before(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        assert fast_forward is not None
        cycles = fast_forward.tape.boundary_cycles
        # At or before the first skippable boundary: no eligible group.
        plans = [_plan(1), _plan(cycles[1]), _plan(cycles[1] + 1)]
        groups = group_plan_indices(fast_forward.boundary_index_for, plans)
        assert groups == [[0, 1], [2]]
        assert fast_forward.boundary_index_for(plans[2].target_cycle) == 1


class TestChunkBoundEdges:
    def test_zero_plans_is_empty(self):
        assert contiguous_groups(0, 4) == []

    def test_negative_plans_is_empty(self):
        assert contiguous_groups(-3, 4) == []

    def test_fewer_plans_than_workers_yields_nonempty_chunks(self):
        assert contiguous_groups(3, 8) == [[0], [1], [2]]

    def test_single_plan_single_chunk(self):
        assert contiguous_groups(1, 8) == [[0]]

    def test_tapeless_campaign_gets_contiguous_groups(self):
        # No spec, no tape: index ranges sized by the worker count.
        plans = [_plan(cycle) for cycle in range(10)]
        groups, workers = plan_groups(None, _config(workers=2), plans)
        assert groups == contiguous_groups(10, 2)
        assert workers == 2


class TestWorkerClamp:
    def test_workers_clamped_to_group_count(self):
        # The scheduler clamps the pool to the group count: more
        # workers than groups only buys idle pool startup.
        assert resolve_workers(8, max_useful=min(12, 3)) == 3

    def test_explicit_request_still_validated_before_clamp(self):
        with pytest.raises(ValueError):
            resolve_workers(0, max_useful=3)

    def test_campaign_clamps_pool_to_groups(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        from repro.faultinject.campaign import draw_plans

        campaign_config = _config(n_injections=12, seed=10, workers=64)
        plans = draw_plans(campaign_config, golden.total_cycles)
        groups, workers = plan_groups(spec, campaign_config, plans)
        assert groups == group_plan_indices(fast_forward.boundary_index_for, plans)
        assert workers == len(groups) <= len(plans)


class TestJournalInterplay:
    def test_journal_checkpoints_at_group_granularity(self, vs, tmp_path):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        from repro.faultinject.campaign import draw_plans

        campaign_config = _config(n_injections=12, seed=10, workers=3)
        plans = draw_plans(campaign_config, golden.total_cycles)
        groups = group_plan_indices(fast_forward.boundary_index_for, plans)

        journal = tmp_path / "groups.jsonl"
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            campaign_config,
            spec=spec,
            journal_path=journal,
        )
        state = load_journal(journal)
        assert state.groups == groups
        assert sorted(state.chunks) == list(range(len(groups)))
        for index, group in enumerate(groups):
            assert len(state.chunks[index]) == len(group)


class TestTelemetry:
    def test_fanout_counters_surface(self, vs):
        stream, config, golden, workload, spec = vs
        # Fresh handles: fan-out state hangs off the process-cached
        # FastForward handle, and creation-time counters only fire for
        # fan-outs materialized while tracing is on.
        clear_golden_cache()
        # A fresh tracer, so the counts cover this campaign alone even
        # when REPRO_TRACE=1 has tracing on for the whole session.
        tracer, previous = telemetry.swap_in_fresh_tracer()
        try:
            run_campaign(
                workload,
                golden.output,
                golden.total_cycles,
                _config(),
                spec=spec,
            )
            registry = tracer.registry
        finally:
            telemetry.restore_tracer(previous)
        groups = registry.counter("campaign.fanout.groups")
        assert groups >= 1
        assert registry.counter("campaign.fanout.shared_restores") == groups
        assert registry.counter("campaign.fanout.cow_clones") > 0
        # The bench seed produces masked runs, and masked fan-out
        # members re-converge to the tape — at least one golden tail
        # must have been synthesized (this is where the speedup lives).
        assert registry.counter("campaign.fanout.golden_tail") >= 1
        hits = registry.counter("campaign.fastforward.hits")
        full_runs = registry.counter("campaign.fastforward.full_runs")
        assert hits + full_runs == 16

    def test_trace_summarize_renders_amortization(self, vs, tmp_path):
        stream, config, golden, workload, spec = vs
        clear_golden_cache()
        tracer = telemetry.enable()
        try:
            run_campaign(
                workload,
                golden.output,
                golden.total_cycles,
                _config(),
                spec=spec,
            )
            trace_path = write_trace(tmp_path / "trace.jsonl", tracer)
        finally:
            telemetry.disable()
        summary = summarize_trace(trace_path)
        assert any(name.startswith("fanout.suffix.b") for name in summary.stages)
        rendered = render_summary(summary)
        assert "boundary fan-out (restore amortization per group):" in rendered
        assert "restore(s) saved" in rendered
        # Per-boundary counters feed the table, not the counter dump.
        assert "campaign.fanout.b" not in rendered.split("counters:")[-1]
