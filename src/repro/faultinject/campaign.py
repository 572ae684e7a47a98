"""Statistical error-injection campaigns (paper Section V-A).

A campaign runs ``n`` single-bit injections at uniformly random error
sites (cycle, register, bit) of one register kind, collecting:

* outcome counts and rates (Fig. 10 / Fig. 11),
* running rates after every injection — the convergence trend whose
  knee tells how many injections suffice (Fig. 9a),
* the per-register and per-bit injection histograms that demonstrate
  error-site coverage (Fig. 9b),
* the corrupted outputs of SDC runs, for quality analysis (Fig. 12).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.faultinject.injector import InjectionPlan, random_plan
from repro.faultinject.journal import (
    CampaignJournal,
    JournalError,
    load_journal,
    require_same_campaign,
)
from repro.faultinject.monitor import InjectionResult, Workload
from repro.faultinject.outcomes import OutcomeCounts, RunningRates
from repro.faultinject.parallel import (
    RetryPolicy,
    WorkloadSpec,
    execute_plans_parallel,
    plan_groups,
)
from repro.faultinject.registers import NUM_REGISTERS, REGISTER_BITS, LivenessModel, RegKind
from repro.faultinject.watchdog import WatchdogPolicy
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.sampling import StratifiedSummary


@dataclass
class CampaignConfig:
    """Parameters of one injection campaign."""

    n_injections: int
    kind: RegKind
    seed: int = 0
    hang_factor: float = 6.0
    site_filter: str | None = None
    keep_sdc_outputs: bool = True
    liveness: LivenessModel = field(default_factory=LivenessModel)
    #: Worker processes to shard the campaign across.  ``None`` defers
    #: to the ``REPRO_WORKERS`` environment variable (default 1 = run
    #: in-process).  Values above 1 take effect only when the caller
    #: supplies a picklable workload spec (see ``run_campaign``).
    workers: int | None = None
    #: Wall-clock watchdog deadlines (see
    #: :mod:`repro.faultinject.watchdog`).  ``None`` disables both the
    #: per-injection soft deadline and the per-chunk hard deadline;
    #: the simulated cycle-budget watchdog (``hang_factor``) is always
    #: active either way.
    watchdog: WatchdogPolicy | None = None
    #: Chunk retry/backoff/degradation behaviour for worker failures
    #: (see :class:`repro.faultinject.parallel.RetryPolicy`).  Never
    #: affects results, only whether and how a campaign survives them.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Enable stage-boundary divergence probes (see
    #: :mod:`repro.forensics`): every injection additionally records the
    #: first pipeline stage whose output diverged from the golden run,
    #: the last stage reached, and a per-stage diverged bitmap.  Probes
    #: only observe — outcomes, counts, histograms and SDC payloads are
    #: bit-identical to an unprobed campaign at any worker count.
    probe: bool = False
    #: Sampling strategy (see :mod:`repro.faultinject.sampling`).
    #: ``"uniform"`` (the default) draws ``n_injections`` plans exactly
    #: as every previous release did — byte-identical for the same seed,
    #: an invariant pinned by tests.  ``"stratified"`` ignores
    #: ``n_injections``: it takes the exact dead mass from the golden
    #: fire log and samples the live (fire-site stage x value role)
    #: strata in rounds, stopping each stratum once its widest Wilson
    #: CI drops below ``ci_width``; results carry both raw and
    #: Horvitz-Thompson reweighted rates.  Part of the journal config
    #: fingerprint, so mixed-mode resume is rejected.
    sampling: str = "uniform"
    #: Stratified mode: per-stratum convergence target — a stratum stops
    #: once the widest Wilson 95% CI over its outcome rates is at most this.
    ci_width: float = 0.02
    #: Stratified mode: injections drawn per still-unresolved stratum
    #: per round.
    round_size: int = 8
    #: Stratified mode: hard campaign-wide draw budget; ``None`` keeps
    #: sampling until every stratum converges.  A stratum that cannot
    #: reach ``ci_width`` within the budget is reported unconverged.
    max_injections: int | None = None
    #: Heartbeat cadence in seconds; ``None`` defers to the
    #: ``REPRO_HEARTBEAT_INTERVAL`` environment variable (default 2.0).
    #: Pure presentation — never part of the journal fingerprint.
    heartbeat_interval: float | None = None
    #: Suppress heartbeat/annotation lines on stderr.  Progress still
    #: flows through the observe event bus when one is installed, so a
    #: quiet campaign remains fully watchable via ``--status``.
    quiet: bool = False


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    counts: OutcomeCounts
    running: RunningRates
    results: list[InjectionResult]
    register_histogram: np.ndarray  # (NUM_REGISTERS,) injections per register
    bit_histogram: np.ndarray  # (REGISTER_BITS,) injections per bit
    #: Fired-and-in-study counts, tallied incrementally during the run
    #: so the full ``results`` list never has to be re-walked (and could
    #: in principle be dropped for huge campaigns).
    fired: OutcomeCounts | None = None
    #: Stratified-sampling summary (per-stratum statistics, raw vs
    #: Horvitz-Thompson reweighted rates, draws saved) when the campaign
    #: ran with ``sampling="stratified"``; None for uniform campaigns.
    sampling: "StratifiedSummary | None" = None

    @property
    def sdc_results(self) -> list[InjectionResult]:
        """The SDC runs (with corrupted outputs when kept)."""
        return [r for r in self.results if r.is_sdc]

    def rates(self) -> dict[str, float]:
        """Outcome rates keyed by name."""
        return self.counts.rates()

    def fired_counts(self) -> OutcomeCounts:
        """Outcome counts restricted to runs whose flip actually fired.

        Site-filtered campaigns (the hot-function study) only count the
        experiments that injected into the functions of interest, as the
        paper's AFI configuration does (Section V-C).
        """
        if self.fired is not None:
            return self.fired
        counts = OutcomeCounts()
        for result in self.results:
            if result.record.fired and result.record.in_study:
                counts.add(result.outcome, result.crash_kind)
        return counts


def draw_plans(config: CampaignConfig, golden_cycles: int) -> list[InjectionPlan]:
    """Draw the campaign's full plan sequence from its seed.

    Serial and parallel execution share this single, ordered draw, which
    is what makes their results bit-identical.
    """
    plan_rng = np.random.default_rng(config.seed)
    return [
        random_plan(plan_rng, golden_cycles, config.kind)
        for _ in range(config.n_injections)
    ]


def assemble_campaign(
    config: CampaignConfig, results: list[InjectionResult]
) -> CampaignResult:
    """Fold ordered per-run results into campaign statistics."""
    counts = OutcomeCounts()
    fired = OutcomeCounts()
    register_histogram = np.zeros(NUM_REGISTERS, dtype=np.int64)
    bit_histogram = np.zeros(REGISTER_BITS, dtype=np.int64)
    for result in results:
        counts.add(result.outcome, result.crash_kind)
        if result.record.fired and result.record.in_study:
            fired.add(result.outcome, result.crash_kind)
        register_histogram[result.plan.register] += 1
        bit_histogram[result.plan.bit] += 1
        if not config.keep_sdc_outputs:
            # Drop any corrupted-output payload eagerly; nothing
            # downstream may rely on it when retention is off.
            result.output = None
    return CampaignResult(
        config=config,
        counts=counts,
        running=RunningRates.from_outcomes([result.outcome for result in results]),
        results=results,
        register_histogram=register_histogram,
        bit_histogram=bit_histogram,
        fired=fired,
    )


class UniformPlanner:
    """A uniform campaign as a one-round sampled campaign: the seed's draw.

    The planner interface :func:`run_campaign` drives, shared with
    :class:`~repro.faultinject.sampling.StratifiedPlanner`.
    """

    stratification = None

    def __init__(self, config: CampaignConfig, golden_cycles: int) -> None:
        self.config = config
        self.golden_cycles = golden_cycles
        self.results: list[InjectionResult] = []
        self.rounds_done = 0

    @property
    def total_draws(self) -> int:
        return len(self.results)

    def start_fields(self, groups: list[list[int]]) -> tuple[dict, str]:
        """``campaign_start`` fields and the banner note of this mode."""
        fields = dict(total=self.config.n_injections, groups=len(groups))
        return fields, f"{len(groups)} dispatch groups"

    def next_round(self) -> list[InjectionPlan]:
        if self.rounds_done:
            return []
        with telemetry.span("campaign.draw_plans"):
            return draw_plans(self.config, self.golden_cycles)

    def absorb_round(self, results: list[InjectionResult]) -> None:
        self.results.extend(results)
        self.rounds_done += 1

    def finish(self, campaign: CampaignResult) -> dict:
        return {}


def _open_journal(
    config: CampaignConfig, path: Path, resume: bool, stratification: dict | None
) -> tuple[CampaignJournal, dict[int, InjectionResult]]:
    """Create the journal, or reopen it for a resume.

    Returns ``(journal, journaled)``: the results journaled so far keyed
    by plan index (empty for a fresh journal).
    """
    if not resume:
        return CampaignJournal.create(path, config, stratification), {}
    state = load_journal(path)
    require_same_campaign(state.fingerprint, config, path)
    if state.stratification != stratification:
        raise JournalError(
            f"journal {path} records a different stratification "
            f"({state.stratification!r} vs {stratification!r}); "
            f"the golden run or liveness model drifted since it was written"
        )
    observe_events.emit(
        "journal_resume",
        replayed=state.chunks,
        injections=len(state.results),
        discarded_partial=state.discarded_partial,
    )
    note = f"resumed {state.chunks} journaled chunk(s), {len(state.results)} injection(s)"
    if state.discarded_partial:
        note += " (discarded a torn or corrupt record)"
    observe_events.emit("note", note=note)
    return CampaignJournal.append_to(path, chunks_written=state.chunks), state.results


def _journaled_round(
    journaled: dict[int, InjectionResult], plans: list[InjectionPlan], base: int, path: Path | None
) -> dict[int, InjectionResult]:
    """Take this round's results out of ``journaled``, refusing drift.

    A journaled result whose plan differs from the plan drawn at its
    index was written by a different campaign (golden run, liveness
    model or plan draw changed since).
    """
    done = {}
    for index, plan in enumerate(plans, start=base):
        result = journaled.pop(index, None)
        if result is None:
            continue
        if result.plan != plan:
            raise JournalError(
                f"journal {path}: plan index {index} records {result.plan}, but the "
                f"campaign draws {plan} there; the journal is from another campaign"
            )
        done[index] = result
    return done


def run_campaign(
    workload: Workload,
    golden_output: np.ndarray,
    golden_cycles: int,
    config: CampaignConfig,
    spec: WorkloadSpec | None = None,
    journal_path: Path | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run a full statistical injection campaign.

    Fully deterministic given ``config.seed``: plans are drawn from a
    seeded generator and each run's injector RNG is derived from
    ``(seed, plan index)``.

    One loop serves both sampling modes.  A planner yields rounds of
    plans: ``config.sampling="uniform"`` one round, the seed's full
    draw (byte-identical to previous releases); ``"stratified"`` the
    adaptive rounds of :class:`~repro.faultinject.sampling.StratifiedPlanner`
    (exact dead mass from the fire log, draws over the live fire-site
    stage x value role strata, each stratum stopped once its Wilson-CI
    width converges) until every stratum converged or the budget ran out.

    With a snapshot tape, this process decides each round's plans the
    golden fire log can (see
    :func:`repro.faultinject.parallel.execute_plans_parallel`); the
    rest are dispatched in groups (see
    :func:`repro.faultinject.parallel.plan_groups`), one per frame they
    resume in.  When ``spec`` (a picklable recipe that rebuilds the
    workload) is given and the resolved worker count exceeds 1, groups
    are sharded across a process pool — bit-identical at any worker
    count.  Worker deaths and stalled chunks retry under
    ``config.retry`` and degrade toward in-process execution rather
    than aborting (see ``docs/resilience.md``).

    ``journal_path`` makes the campaign **crash-safe**: each round's
    decided plans, then every completed group, are durably appended
    (fsync'd) to a JSONL checkpoint journal, one record each.
    ``resume=True`` validates the journal's config fingerprint, then
    runs the same loop, skipping every plan index already journaled —
    bit-identical to an uninterrupted run, at any worker count.  A torn
    or corrupt record is discarded; its indices simply re-run.

    With telemetry enabled (see :mod:`repro.telemetry`) the campaign
    additionally records phase spans, per-outcome counters and (unless
    ``config.quiet``) a progress heartbeat on stderr — none of which
    feed back into the campaign, so traced and untraced runs produce
    identical results.
    """
    # Lazy import: sampling imports repro.analysis, which imports this module.
    from repro.faultinject.sampling import SAMPLING_MODES, StratifiedPlanner

    if config.sampling not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}, got {config.sampling!r}")
    if config.sampling == "stratified":
        planner = StratifiedPlanner.for_campaign(config, golden_cycles, spec)
    else:
        planner = UniformPlanner(config, golden_cycles)

    with telemetry.campaign_heartbeat(config):
        plans = planner.next_round()
        with telemetry.span("campaign.group_plans"):
            groups, workers = plan_groups(spec, config, plans)
        fields, banner = planner.start_fields(groups)
        observe_events.emit(
            "campaign_start",
            mode=config.sampling,
            kind=config.kind.value,
            workers=workers,
            seed=config.seed,
            journaled=journal_path is not None,
            resume=resume,
            **fields,
        )
        if config.probe:
            observe_events.emit("note", note="divergence probes on")
        observe_events.emit("note", note=banner)

        journal: CampaignJournal | None = None
        journaled: dict[int, InjectionResult] = {}
        if journal_path is not None:
            stratification = planner.stratification
            journal, journaled = _open_journal(
                config,
                Path(journal_path),
                resume,
                stratification.to_dict() if stratification is not None else None,
            )
        with telemetry.span("campaign.execute"), journal or contextlib.nullcontext():
            while plans:
                base = planner.total_draws
                results = execute_plans_parallel(
                    spec,
                    config,
                    plans,
                    workers,
                    groups=groups,
                    local_state=(workload, golden_output, golden_cycles),
                    completed=_journaled_round(journaled, plans, base, journal_path),
                    journal=journal,
                    index_base=base,
                    round_index=planner.rounds_done,
                )
                planner.absorb_round(results)
                plans = planner.next_round()
                groups, workers = plan_groups(spec, config, plans)
        if journaled:
            raise JournalError(
                f"journal {journal_path} holds results for plan indices the "
                f"campaign never draws (first {min(journaled)}); it is from "
                f"another campaign"
            )

        with telemetry.span("campaign.assemble"):
            campaign = assemble_campaign(config, planner.results)
        extra = planner.finish(campaign)
        observe_events.emit(
            "campaign_finish",
            total=campaign.counts.total,
            outcomes={
                "mask": campaign.counts.masked,
                "sdc": campaign.counts.sdc,
                "crash": campaign.counts.crash,
                "hang": campaign.counts.hang,
            },
            **extra,
        )
        return campaign
