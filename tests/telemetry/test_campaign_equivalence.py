"""Acceptance: tracing never changes campaign results.

The determinism contract from the telemetry design: a traced campaign
produces byte-identical outcome counts, running-rate series, histograms
and SDC outputs to an untraced one, at ``workers=1`` and ``workers>1``
— and the merged campaign counters agree with the assembled statistics.
"""

from __future__ import annotations

from repro import telemetry
from repro.faultinject.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.registers import RegKind

from tests.faultinject.test_parallel import (
    ToyWorkloadSpec,
    _campaigns_equal,
    toy_workload,
)


def _toy_campaign(workers: int, traced: bool) -> CampaignResult:
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    config = CampaignConfig(
        n_injections=60, kind=RegKind.GPR, seed=9, workers=workers
    )
    if traced:
        telemetry.enable()
    try:
        return run_campaign(
            toy_workload,
            golden,
            cycles,
            config,
            spec=spec if workers > 1 else None,
        )
    finally:
        telemetry.disable()


class TestToyCampaignEquivalence:
    def test_traced_serial_matches_untraced(self):
        _campaigns_equal(_toy_campaign(1, traced=False), _toy_campaign(1, traced=True))

    def test_traced_parallel_matches_untraced_serial(self):
        _campaigns_equal(_toy_campaign(1, traced=False), _toy_campaign(3, traced=True))

    def test_traced_parallel_matches_traced_serial(self):
        _campaigns_equal(_toy_campaign(1, traced=True), _toy_campaign(3, traced=True))


class TestMergedCounters:
    def _counters_for(self, workers: int) -> tuple[dict, CampaignResult]:
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        tracer = telemetry.enable()
        try:
            campaign = run_campaign(
                toy_workload,
                golden,
                cycles,
                CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=9, workers=workers),
                spec=spec if workers > 1 else None,
            )
            return dict(tracer.registry.snapshot()["counters"]), campaign
        finally:
            telemetry.disable()

    def test_counters_agree_with_assembled_statistics(self):
        counters, campaign = self._counters_for(workers=1)
        assert counters["campaign.runs"] == 60
        outcome_total = sum(
            value for name, value in counters.items()
            if name.startswith("campaign.outcome.")
        )
        assert outcome_total == campaign.counts.total == 60
        fired_total = sum(1 for r in campaign.results if r.record.fired)
        assert counters.get("campaign.fired", 0) == fired_total

    def test_worker_snapshots_merge_to_serial_counters(self):
        serial_counters, _ = self._counters_for(workers=1)
        parallel_counters, _ = self._counters_for(workers=3)
        campaign_keys = [k for k in serial_counters if k.startswith("campaign.")]
        assert campaign_keys
        for key in campaign_keys:
            assert parallel_counters.get(key) == serial_counters[key], key

    def test_parallel_campaign_aggregates_stage_timers(self):
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        tracer = telemetry.enable()
        try:
            run_campaign(
                toy_workload,
                golden,
                cycles,
                CampaignConfig(n_injections=40, kind=RegKind.GPR, seed=2, workers=2),
                spec=spec,
            )
            # Parent-side phase spans recorded as events...
            names = {event["name"] for event in tracer.events}
            assert {"campaign.draw_plans", "campaign.execute", "campaign.assemble"} <= names
        finally:
            telemetry.disable()


class TestVSCampaignEquivalence:
    def test_tiny_vs_campaign_unchanged_by_tracing(self):
        from repro.analysis.experiments import TINY, input_stream, vs_workload
        from repro.faultinject.parallel import VSWorkloadSpec
        from repro.summarize.approximations import config_for
        from repro.summarize.golden import golden_run

        stream = input_stream("input1", TINY)
        config = config_for("VS")
        golden = golden_run(stream, config)
        spec = VSWorkloadSpec.for_stream(stream, config)
        assert spec is not None

        def run(workers: int, traced: bool) -> CampaignResult:
            if traced:
                telemetry.enable()
            try:
                return run_campaign(
                    vs_workload(stream, config),
                    golden.output,
                    golden.total_cycles,
                    CampaignConfig(n_injections=5, kind=RegKind.GPR, seed=21, workers=workers),
                    spec=spec,
                )
            finally:
                telemetry.disable()

        untraced = run(1, traced=False)
        _campaigns_equal(untraced, run(1, traced=True))
        _campaigns_equal(untraced, run(2, traced=True))
