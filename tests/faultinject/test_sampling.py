"""Tests for the adaptive stratified campaign planner and estimators.

Four invariants anchor this file:

* the fire-log strata are exact: the dead mass equals one
  ``FastForward.predict`` call per firing checkpoint and register that
  decides MASKED, the live
  strata partition the rest, and every drawn plan is live and lands
  back in its own (stage, role) stratum;
* the Horvitz-Thompson reweighted estimator is *unbiased* (checked by
  seeded Monte-Carlo replication against an analytic error bound) and
  reduces exactly to the plain pooled rate under equal weights and
  equal per-cell draws;
* uniform mode draws plans **byte-identically** to the pre-stratified
  releases — the reference draw is inlined here, not imported, so a
  refactor of ``draw_plans`` cannot silently move the pin;
* a stratified campaign is deterministic, resumable bit-identically
  after an interrupt, and statistically consistent with a uniform
  campaign on the same workload (the ``repro report diff`` z-gate).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.experiments import TINY, input_stream, vs_workload
from repro.analysis.hot import WARP_SITE_PREFIX
from repro.faultinject.campaign import CampaignConfig, draw_plans, run_campaign
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.journal import (
    ABORT_AFTER_ENV,
    JOURNAL_SCHEMA_VERSION,
    CampaignInterrupted,
    JournalError,
    config_fingerprint,
)
from repro.faultinject.outcomes import Outcome, OutcomeCounts
from repro.faultinject.parallel import VSWorkloadSpec
from repro.faultinject.registers import (
    NUM_REGISTERS,
    REGISTER_BITS,
    FlipEffect,
    LivenessModel,
    RegKind,
)
from repro.faultinject.sampling import (
    Stratum,
    cell_max_ci_width,
    reweighted_rates,
    reweighted_variance,
    stratify,
)
from repro.summarize.approximations import config_for
from repro.summarize.golden import golden_run, golden_with_tape
from tests.faultinject.test_parallel import toy_workload


def _counts(masked=0, sdc=0, crash_segv=0, crash_abort=0, hang=0) -> OutcomeCounts:
    return OutcomeCounts(
        masked=masked,
        sdc=sdc,
        crash_segv=crash_segv,
        crash_abort=crash_abort,
        hang=hang,
    )


@st.composite
def outcome_partitions(draw, total: int):
    """Split ``total`` runs over the four primary outcome classes."""
    masked = draw(st.integers(0, total))
    sdc = draw(st.integers(0, total - masked))
    crash = draw(st.integers(0, total - masked - sdc))
    hang = total - masked - sdc - crash
    return _counts(masked=masked, sdc=sdc, crash_segv=crash, hang=hang)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


class TestReweightedRates:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_equal_weights_equal_draws_reduce_to_pooled_rate(self, data):
        """With uniform strata the HT estimate IS the plain rate."""
        n_cells = data.draw(st.integers(1, 6))
        per_cell = data.draw(st.integers(1, 40))
        counts = [data.draw(outcome_partitions(per_cell)) for _ in range(n_cells)]
        weights = [1.0 / n_cells] * n_cells

        pooled = _counts()
        for c in counts:
            pooled.masked += c.masked
            pooled.sdc += c.sdc
            pooled.crash_segv += c.crash_segv
            pooled.crash_abort += c.crash_abort
            pooled.hang += c.hang

        reweighted = reweighted_rates(weights, counts)
        for outcome in Outcome:
            assert reweighted[outcome.value] == pytest.approx(
                pooled.rate(outcome), abs=1e-12
            )

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_ht_estimator_is_unbiased(self, data):
        """Mean HT estimate over replications matches the true mixture rate.

        The world is synthetic: known cell weights and true per-cell SDC
        probabilities.  Every cell is sampled, so the estimator is
        exactly unbiased and the replication mean must land within a
        5-sigma analytic bound of ``sum_c W_c p_c``.
        """
        n_cells = data.draw(st.integers(2, 5))
        raw_weights = [
            data.draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in range(n_cells)
        ]
        total = sum(raw_weights)
        weights = [w / total for w in raw_weights]
        probs = [
            data.draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(n_cells)
        ]
        draws = [data.draw(st.integers(30, 80)) for _ in range(n_cells)]
        seed = data.draw(st.integers(0, 2**31 - 1))

        truth = sum(w * p for w, p in zip(weights, probs))
        # Variance of one HT estimate (all cells sampled, weights sum
        # to 1): sum_c W_c^2 p_c (1 - p_c) / n_c.
        single_var = sum(
            w**2 * p * (1.0 - p) / n for w, p, n in zip(weights, probs, draws)
        )
        replications = 400
        rng = np.random.default_rng(seed)
        estimates = []
        for _ in range(replications):
            counts = []
            for n, p in zip(draws, probs):
                # SDC successes are binomial; masked fills the rest so
                # each cell totals exactly its n draws.
                sdc = int(rng.binomial(n, p))
                counts.append(_counts(sdc=sdc, masked=n - sdc))
            estimates.append(reweighted_rates(weights, counts)["sdc"])
        mean = sum(estimates) / replications
        bound = 5.0 * math.sqrt(single_var / replications) + 1e-9
        assert abs(mean - truth) <= bound

    def test_zero_draw_cells_excluded_and_renormalized(self):
        weights = [0.25, 0.75]
        counts = [_counts(masked=3, sdc=1), _counts()]
        rates = reweighted_rates(weights, counts)
        # Only the sampled cell carries information: its own rates.
        assert rates["mask"] == pytest.approx(0.75)
        assert rates["sdc"] == pytest.approx(0.25)

    def test_no_sampled_cells_gives_zero_rates(self):
        rates = reweighted_rates([0.5, 0.5], [_counts(), _counts()])
        assert rates == {outcome.value: 0.0 for outcome in Outcome}

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="weights"):
            reweighted_rates([0.5], [_counts(), _counts()])

    def test_variance_matches_hand_computation(self):
        weights = [0.5, 0.5]
        counts = [_counts(masked=5, sdc=5), _counts(masked=10)]
        variance = reweighted_variance(weights, counts)
        # Cell 1: p=0.5, n=10 -> 0.25 * 0.5*0.5/10; cell 2: p=0 -> 0.
        assert variance["sdc"] == pytest.approx(0.25 * 0.025)
        assert variance["mask"] == pytest.approx(0.25 * 0.025)

    def test_cell_max_ci_width_shrinks_with_draws(self):
        assert cell_max_ci_width(_counts()) == 1.0
        widths = [
            cell_max_ci_width(_counts(masked=n // 2, sdc=n - n // 2))
            for n in (4, 16, 64, 256)
        ]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < 0.25


# ---------------------------------------------------------------------------
# Fire-log strata
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _vs_tiny():
    """input1/VS at TINY scale: (stream, config, golden, fast-forward handle)."""
    stream = input_stream("input1", TINY)
    config = config_for("VS")
    golden = golden_run(stream, config)
    return stream, config, golden, golden_with_tape(stream, config).fast_forward


#: (kind, site filter) pairs the strata tests sweep.
_KINDS_AND_FILTERS = [
    (kind, site_filter)
    for kind in (RegKind.GPR, RegKind.FPR)
    for site_filter in (None, WARP_SITE_PREFIX)
]


def _stage(site: str) -> str:
    return ".".join(site.split(".")[:2])


def _predicted_masked(fast_forward, plan, liveness, site_filter) -> bool:
    """Whether the fire log decides ``plan`` without a flip (a dead or absent fire).

    A flip into state already dead at the member's restore point is
    decided MASKED too, but it is a live draw that happens to be cheap,
    so it stays out of the dead mass.
    """
    prediction = fast_forward.predict(plan, liveness, site_filter)
    return prediction is not None and prediction.record.effect in (
        None,
        FlipEffect.DEAD_EMPTY,
        FlipEffect.DEAD_STALE,
    )


def _dead_oracle(fast_forward, kind, liveness, site_filter, golden_cycles) -> int:
    """Dead (cycle, register) pairs, one ``predict`` per checkpoint and register.

    Every target in ``(c[k-1], c[k]]`` fires at checkpoint ``k``, so
    one plan aimed at ``c[k]`` decides the whole interval; targets past
    the last firing checkpoint are decided by one plan at the last cycle.
    """
    log = fast_forward.tape.fire_log
    firing = [
        (index, cycle)
        for index, (cycle, site) in enumerate(zip(log.cycles, log.sites))
        if site_filter is None or site.startswith(site_filter)
    ]

    def dead_registers(target: int) -> int:
        return sum(
            _predicted_masked(
                fast_forward, InjectionPlan(target, kind, register, 0), liveness, site_filter
            )
            for register in range(NUM_REGISTERS)
        )

    dead = 0
    previous = -1
    for _index, cycle in firing:
        last = min(cycle, golden_cycles - 1)
        if last > previous:
            dead += (last - previous) * dead_registers(cycle)
            previous = last
    if previous < golden_cycles - 1:
        dead += (golden_cycles - 1 - previous) * dead_registers(golden_cycles - 1)
    return dead


class TestStratification:
    @pytest.mark.parametrize("kind", [RegKind.GPR, RegKind.FPR])
    @pytest.mark.parametrize("site_filter", [None, WARP_SITE_PREFIX])
    @settings(max_examples=4, deadline=None)
    @given(
        ttls=st.tuples(*(st.integers(0, 3_000_000) for _ in range(4))),
    )
    def test_dead_mass_equals_predict_masked_oracle(self, kind, site_filter, ttls):
        _, _, golden, fast_forward = _vs_tiny()
        liveness = LivenessModel(*ttls)
        config = CampaignConfig(
            n_injections=1, kind=kind, liveness=liveness, site_filter=site_filter
        )
        strat = stratify(config, golden.total_cycles, fast_forward.tape.fire_log)
        assert strat.dead == _dead_oracle(
            fast_forward, kind, liveness, site_filter, golden.total_cycles
        )
        assert strat.dead + sum(s.mass for s in strat.strata) == strat.total

    def test_cells_partition_the_plan_space(self):
        """Strata rows never overlap, and with the dead mass cover it all."""
        _, _, golden, fast_forward = _vs_tiny()
        for kind, site_filter in _KINDS_AND_FILTERS:
            config = CampaignConfig(n_injections=1, kind=kind, site_filter=site_filter)
            strat = stratify(config, golden.total_cycles, fast_forward.tape.fire_log)
            rows = np.concatenate([stratum.rows for stratum in strat.strata])
            assert (rows[:, 0] < rows[:, 1]).all()
            assert rows[:, 1].max() <= golden.total_cycles and rows[:, 0].min() >= 0
            for register in range(NUM_REGISTERS):
                spans = sorted(map(tuple, rows[rows[:, 2] == register, :2].tolist()))
                assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
            assert strat.dead + int((rows[:, 1] - rows[:, 0]).sum()) == strat.total
            assert strat.dead_mass + sum(strat.weights()) == pytest.approx(1.0, abs=1e-12)

    def test_cell_draws_land_in_their_own_cell(self):
        """Every drawn plan is live and falls back into its own (stage, role)."""
        _, _, golden, fast_forward = _vs_tiny()
        log = fast_forward.tape.fire_log
        for kind, site_filter in _KINDS_AND_FILTERS:
            config = CampaignConfig(n_injections=1, kind=kind, site_filter=site_filter)
            strat = stratify(config, golden.total_cycles, log)
            assert strat.strata
            for stratum in strat.strata:
                for plan in stratum.draw(kind, 32, seed=3, round_index=2):
                    assert 0 <= plan.target_cycle < golden.total_cycles
                    assert 0 <= plan.bit < REGISTER_BITS
                    assert not _predicted_masked(fast_forward, plan, config.liveness, site_filter)
                    checkpoint = log.fire_checkpoint(plan.target_cycle, site_filter)
                    write = log.slot_at(kind, plan.register, checkpoint)
                    assert (_stage(log.sites[checkpoint]), write.role.value) == (
                        stratum.stage,
                        stratum.role,
                    )

    def test_cell_draws_are_deterministic_per_round_and_cell(self):
        _, _, golden, fast_forward = _vs_tiny()
        config = CampaignConfig(n_injections=1, kind=RegKind.GPR)
        strat = stratify(config, golden.total_cycles, fast_forward.tape.fire_log)
        stratum = strat.strata[1]
        first = stratum.draw(RegKind.GPR, 8, seed=7, round_index=1)
        assert first == stratum.draw(RegKind.GPR, 8, seed=7, round_index=1)
        assert first != stratum.draw(RegKind.GPR, 8, seed=7, round_index=2)
        assert first != strat.strata[2].draw(RegKind.GPR, 8, seed=7, round_index=1)

    def test_no_fire_log_is_one_stratum_over_every_register(self):
        config = CampaignConfig(n_injections=1, kind=RegKind.FPR)
        strat = stratify(config, 5000)
        assert strat.dead == 0 and strat.dead_mass == 0.0
        (stratum,) = strat.strata
        assert stratum.rows.tolist() == [[0, 5000, r] for r in range(NUM_REGISTERS)]
        assert stratum.mass == strat.total == 5000 * NUM_REGISTERS
        plans = stratum.draw(RegKind.FPR, 200, seed=1, round_index=0)
        assert all(0 <= plan.target_cycle < 5000 for plan in plans)
        with pytest.raises(ValueError, match="golden_cycles"):
            stratify(config, 0)

    def test_draws_cover_exactly_the_rows(self):
        """Every (cycle, register) of the table is drawn, and nothing else."""
        stratum = Stratum(0, "vision.orb", "data", [(0, 2, 5), (10, 11, 7), (3, 4, 5)])
        assert stratum.mass == 4
        plans = stratum.draw(RegKind.GPR, 400, seed=2, round_index=0)
        assert {(plan.target_cycle, plan.register) for plan in plans} == {
            (0, 5), (1, 5), (10, 7), (3, 5),
        }
        assert {plan.bit for plan in plans} == set(range(REGISTER_BITS))


# ---------------------------------------------------------------------------
# Uniform mode: the byte-identity pin
# ---------------------------------------------------------------------------


class TestUniformPin:
    @pytest.mark.parametrize("seed", [0, 1, 9, 123])
    @pytest.mark.parametrize("n", [1, 12, 60])
    def test_uniform_plans_byte_identical_to_reference(self, seed, n):
        """The exact pre-stratification draw, inlined as the reference.

        ``draw_plans`` must keep producing this sequence forever:
        one ``default_rng(seed)`` stream, per plan drawing cycle then
        register then bit with ``rng.integers``.
        """
        golden_cycles = 48_000
        rng = np.random.default_rng(seed)
        reference = [
            InjectionPlan(
                target_cycle=int(rng.integers(0, golden_cycles)),
                kind=RegKind.GPR,
                register=int(rng.integers(0, NUM_REGISTERS)),
                bit=int(rng.integers(0, REGISTER_BITS)),
            )
            for _ in range(n)
        ]
        config = CampaignConfig(n_injections=n, kind=RegKind.GPR, seed=seed)
        assert draw_plans(config, golden_cycles) == reference

    def test_stratified_knobs_do_not_perturb_uniform_mode(self):
        """Uniform plans and fingerprints ignore the stratified knobs."""
        golden_cycles = 48_000
        base = CampaignConfig(n_injections=20, kind=RegKind.GPR, seed=4)
        tweaked = CampaignConfig(
            n_injections=20,
            kind=RegKind.GPR,
            seed=4,
            ci_width=0.5,
            round_size=3,
            max_injections=7,
        )
        assert draw_plans(base, golden_cycles) == draw_plans(tweaked, golden_cycles)
        assert config_fingerprint(base) == config_fingerprint(tweaked)
        assert "stratified" not in config_fingerprint(base)


# ---------------------------------------------------------------------------
# The stratified campaign on the toy workload
# ---------------------------------------------------------------------------


def _toy():
    from repro.runtime.context import ExecutionContext

    ctx = ExecutionContext()
    golden = toy_workload(ctx)
    return golden, ctx.cycles


def _stratified_config(**overrides) -> CampaignConfig:
    base = dict(
        n_injections=1,
        kind=RegKind.GPR,
        seed=9,
        workers=1,
        sampling="stratified",
        ci_width=0.3,
        round_size=8,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _outcome_sequence(campaign) -> list[tuple]:
    return [
        (
            result.plan.target_cycle,
            result.plan.register,
            result.plan.bit,
            result.outcome.value,
            result.cycles,
        )
        for result in campaign.results
    ]


class TestStratifiedCampaign:
    def test_converges_and_reports(self):
        golden, cycles = _toy()
        campaign = run_campaign(toy_workload, golden, cycles, _stratified_config())
        summary = campaign.sampling
        assert summary is not None
        assert summary.cells_converged == len(summary.cells)
        assert not summary.budget_exhausted
        assert summary.total_draws == len(campaign.results) == campaign.counts.total
        assert summary.total_draws == sum(stats.draws for stats in summary.cells)
        for stats in summary.cells:
            assert cell_max_ci_width(stats.counts) <= summary.ci_width
        payload = summary.to_dict()
        assert payload["mode"] == "stratified"
        assert payload["draws"] == summary.total_draws
        assert payload["uniform_equivalent_draws"] >= summary.total_draws - payload[
            "draws_saved"
        ]
        assert set(payload["ht_rates"]) == {o.value for o in Outcome}

    def test_is_deterministic(self):
        golden, cycles = _toy()
        first = run_campaign(toy_workload, golden, cycles, _stratified_config())
        second = run_campaign(toy_workload, golden, cycles, _stratified_config())
        assert _outcome_sequence(first) == _outcome_sequence(second)
        assert first.sampling.to_dict() == second.sampling.to_dict()

    def test_budget_cap_marks_exhausted(self):
        golden, cycles = _toy()
        config = _stratified_config(ci_width=0.02, max_injections=40)
        campaign = run_campaign(toy_workload, golden, cycles, config)
        summary = campaign.sampling
        assert summary.budget_exhausted
        assert summary.total_draws <= 40
        assert summary.cells_converged < len(summary.cells)

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        golden, cycles = _toy()
        config = _stratified_config()
        journal = tmp_path / "strat.jsonl"

        monkeypatch.setenv(ABORT_AFTER_ENV, "2")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                toy_workload, golden, cycles, config, journal_path=journal
            )
        monkeypatch.delenv(ABORT_AFTER_ENV)

        resumed = run_campaign(
            toy_workload, golden, cycles, config, journal_path=journal, resume=True
        )
        reference = run_campaign(toy_workload, golden, cycles, config)
        assert _outcome_sequence(resumed) == _outcome_sequence(reference)
        assert resumed.sampling.to_dict() == reference.sampling.to_dict()

    def test_mixed_mode_resume_rejected_both_ways(self, tmp_path):
        golden, cycles = _toy()
        uniform_journal = tmp_path / "uniform.jsonl"
        uniform_config = CampaignConfig(
            n_injections=8, kind=RegKind.GPR, seed=9, workers=1
        )
        run_campaign(
            toy_workload, golden, cycles, uniform_config, journal_path=uniform_journal
        )
        with pytest.raises(JournalError, match="sampling='uniform'"):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                _stratified_config(),
                journal_path=uniform_journal,
                resume=True,
            )

        strat_journal = tmp_path / "strat.jsonl"
        run_campaign(
            toy_workload,
            golden,
            cycles,
            _stratified_config(),
            journal_path=strat_journal,
        )
        with pytest.raises(JournalError, match="sampling='stratified'"):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                uniform_config,
                journal_path=strat_journal,
                resume=True,
            )

    def test_telemetry_counters_surface(self):
        golden, cycles = _toy()
        # Under REPRO_TRACE=1 the tracer already holds earlier tests'
        # counts, so compare this campaign's increments only.
        tracer = telemetry.enable()
        before = dict(tracer.registry.snapshot()["counters"])
        try:
            campaign = run_campaign(
                toy_workload, golden, cycles, _stratified_config()
            )
            after = dict(tracer.registry.snapshot()["counters"])
        finally:
            telemetry.disable()
        counters = {name: after[name] - before.get(name, 0) for name in after}
        summary = campaign.sampling
        assert counters["campaign.sampling.rounds"] == summary.rounds
        assert counters["campaign.sampling.cells_converged"] == summary.cells_converged
        assert counters.get("campaign.sampling.draws_saved", 0) == summary.draws_saved()

    def test_invalid_configs_raise(self):
        golden, cycles = _toy()
        for bad in (
            dict(sampling="bogus"),
            dict(ci_width=0.0),
            dict(ci_width=1.5),
            dict(round_size=0),
            dict(max_injections=0),
        ):
            config = _stratified_config(**bad)
            with pytest.raises(ValueError):
                run_campaign(toy_workload, golden, cycles, config)

    def test_stratified_rates_pass_uniform_diff_gate(self):
        """A stratified campaign diffs cleanly against a uniform one.

        This is the library half of the ``repro report diff`` exit-0
        acceptance gate: reweighted stratified rates on the toy workload
        stay within the two-proportion z-test of a 400-injection uniform
        reference.  Both campaigns are seed-pinned, so this is a
        deterministic check, not a flaky statistical one.
        """
        from repro.forensics.report import diff_records
        from repro.forensics.store import build_record

        golden, cycles = _toy()
        uniform = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(
                n_injections=400,
                kind=RegKind.GPR,
                seed=11,
                workers=1,
                keep_sdc_outputs=False,
            ),
        )
        stratified = run_campaign(
            toy_workload,
            golden,
            cycles,
            _stratified_config(seed=12, ci_width=0.2, keep_sdc_outputs=False),
        )
        diff = diff_records(build_record(uniform), build_record(stratified))
        outcome_rows = [r for r in diff["rows"] if r["metric"].startswith("outcome:")]
        assert outcome_rows, "diff must always compare outcome rates"
        flagged = [r["metric"] for r in outcome_rows if r["flagged"]]
        assert not flagged, f"stratified rates diverged from uniform: {flagged}"

    def test_store_round_trips_sampling_block(self, tmp_path):
        from repro.forensics.store import CampaignStore, build_record

        golden, cycles = _toy()
        campaign = run_campaign(
            toy_workload, golden, cycles, _stratified_config(keep_sdc_outputs=False)
        )
        store = CampaignStore(tmp_path / "store")
        cid = store.put(build_record(campaign))
        record = store.get(cid)
        assert record["sampling"]["mode"] == "stratified"
        assert record["sampling"]["draws"] == campaign.sampling.total_draws

    def test_pre_fire_log_journal_is_refused(self, tmp_path):
        """A grid-era journal fails the fingerprint check, schema unchanged."""
        golden, cycles = _toy()
        config = _stratified_config()
        fingerprint = config_fingerprint(config)
        fingerprint["stratified"]["strata"] = [4, 8, 8]
        header = {
            "type": "header",
            "schema": JOURNAL_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "stratification": {
                "kind": "gpr",
                "total_cycles": cycles,
                "register_classes": 4,
                "bit_octets": 8,
                "cycle_edges": [0, cycles],
            },
        }
        journal = tmp_path / "grid.jsonl"
        journal.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="different campaign configuration"):
            run_campaign(
                toy_workload, golden, cycles, config, journal_path=journal, resume=True
            )


# ---------------------------------------------------------------------------
# The stratified campaign on a workload with a fire log
# ---------------------------------------------------------------------------


def _vs_campaign(config: CampaignConfig, **kwargs):
    stream, vs_config, golden, _ = _vs_tiny()
    return run_campaign(
        vs_workload(stream, vs_config),
        golden.output,
        golden.total_cycles,
        config,
        spec=VSWorkloadSpec.for_stream(stream, vs_config),
        **kwargs,
    )


class TestFireLogCampaign:
    def test_budget_below_one_round_reports_unsampled_mass(self):
        """The reweighted rates never silently describe part of the space."""
        config = _stratified_config(
            kind=RegKind.GPR, round_size=4, max_injections=8, keep_sdc_outputs=False
        )
        summary = _vs_campaign(config).sampling
        strat = summary.stratification
        assert len(strat.strata) * config.round_size > config.max_injections
        assert summary.budget_exhausted
        assert [stats.draws for stats in summary.cells[:2]] == [4, 4]
        unsampled = sum(s.mass for s in strat.strata[2:]) / strat.total
        assert summary.unsampled_mass() == pytest.approx(unsampled, abs=1e-15)
        assert 0 < summary.unsampled_mass() < 1 - strat.dead_mass
        assert summary.to_dict()["unsampled_mass"] == round(unsampled, 9)

    @pytest.mark.parametrize("kind", [RegKind.GPR, RegKind.FPR])
    def test_adaptive_stopping_saves_draws(self, kind):
        """Fewer injections than uniform sampling needs for the same CI.

        Uniform sampling must keep drawing until its slowest stratum's
        share reaches that stratum's stratified count; the planner never
        draws the dead mass and stops each stratum once it converges.
        """
        config = _stratified_config(
            kind=kind, seed=10, ci_width=0.5, keep_sdc_outputs=False
        )
        summary = _vs_campaign(config).sampling
        assert summary.cells_converged == len(summary.cells)
        assert not summary.budget_exhausted
        assert summary.draws_saved() > 0, (
            summary.total_draws,
            summary.uniform_equivalent_draws(),
        )

    def test_dead_mass_is_a_floor_on_the_reweighted_mask_rate(self, tmp_path, monkeypatch):
        config = _stratified_config(
            kind=RegKind.FPR, round_size=2, ci_width=0.5, keep_sdc_outputs=False
        )
        journal = tmp_path / "fpr.jsonl"
        monkeypatch.setenv(ABORT_AFTER_ENV, "1")
        with pytest.raises(CampaignInterrupted):
            _vs_campaign(config, journal_path=journal)
        monkeypatch.delenv(ABORT_AFTER_ENV)
        resumed = _vs_campaign(config, journal_path=journal, resume=True)
        reference = _vs_campaign(config)
        assert _outcome_sequence(resumed) == _outcome_sequence(reference)
        summary = reference.sampling
        assert resumed.sampling.to_dict() == summary.to_dict()
        assert summary.stratification.dead_mass > 0.9
        assert summary.unsampled_mass() == 0.0
        rates = summary.ht_rates()
        assert rates["mask"] >= summary.stratification.dead_mass
        assert sum(rates.values()) == pytest.approx(1.0)
        # The dead mass adds nothing: sum_s W_s^2 p_s (1 - p_s) / n_s.
        expected = sum(
            weight**2 * stats.counts.rate(Outcome.SDC) * (1 - stats.counts.rate(Outcome.SDC))
            / stats.draws
            for weight, stats in zip(summary.stratification.weights(), summary.cells)
        )
        assert summary.ht_variance()["sdc"] == pytest.approx(expected, rel=1e-12)

    def test_cli_prints_dead_mass_and_warns_on_unsampled_mass(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "runs"
        args = [
            "campaign", "--input", "input1", "--frames", "8", "--workers", "1",
            "--sampling", "stratified", "--round-size", "4", "--max-injections", "4",
            "--store", str(store), "--out", str(tmp_path / "strat.json"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "dead mass" in out
        assert "lies in strata with no draws" in out
        sampling = json.loads((tmp_path / "strat.json").read_text())["sampling"]
        assert sampling["unsampled_mass"] > 0
        assert 0 < sampling["stratification"]["dead_mass"] < 1

        assert main(["report", "list", str(store)]) == 0
        cid = capsys.readouterr().out.split()[0]
        assert main(["report", "show", str(store), cid, "--format", "markdown"]) == 0
        report = capsys.readouterr().out
        assert "| dead mass |" in report
        assert "| unsampled mass |" in report
        assert "## Per-stratum Wilson-CI widths" in report
