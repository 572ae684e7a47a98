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
    #: per round (the journal checkpoints once per round).
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
    running = RunningRates()
    register_histogram = np.zeros(NUM_REGISTERS, dtype=np.int64)
    bit_histogram = np.zeros(REGISTER_BITS, dtype=np.int64)
    for result in results:
        counts.add(result.outcome, result.crash_kind)
        running.record(counts)
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
        running=running,
        results=results,
        register_histogram=register_histogram,
        bit_histogram=bit_histogram,
        fired=fired,
    )


def _prepare_journal(
    config: CampaignConfig,
    n_plans: int,
    journal_path: Path,
    resume: bool,
    groups: list[list[int]],
) -> tuple[CampaignJournal, list[list[int]], dict[int, list[InjectionResult]], bool]:
    """Open (or reopen) the journal.

    Returns ``(journal, groups, completed, partial)``.  On resume the
    groups are whatever the journal header recorded: the original run's
    dispatch must be replayed verbatim.
    """
    journal_path = Path(journal_path)
    if not resume:
        return CampaignJournal.create(journal_path, config, groups=groups), groups, {}, False

    state = load_journal(journal_path)
    require_same_campaign(state.fingerprint, config, journal_path)
    covered = sorted(index for group in state.groups for index in group)
    if covered != list(range(n_plans)):
        raise JournalError(
            f"journal {journal_path} groups do not cover the campaign's "
            f"{n_plans} injections"
        )
    journal = CampaignJournal.append_to(journal_path, chunks_written=len(state.chunks))
    return journal, state.groups, state.chunks, state.discarded_partial


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
    seeded generator and each run's injector RNG is derived from it.

    Plans are dispatched in groups (see
    :func:`repro.faultinject.parallel.plan_groups`): with a snapshot
    tape, one group per resume boundary, whose members share one
    fast-forward restore.  When ``spec`` (a picklable recipe that
    rebuilds the workload) is given and the resolved worker count
    exceeds 1, groups are sharded across a process pool and results
    reassembled in plan order — bit-identical at any worker count.
    Worker deaths and stalled chunks retry under ``config.retry`` and
    degrade toward in-process execution rather than aborting (see
    ``docs/resilience.md``).

    ``journal_path`` makes the campaign **crash-safe**: every completed
    group is durably appended (fsync'd) to a JSONL checkpoint journal.
    ``resume=True`` replays the journal's completed chunks — after
    validating that its config fingerprint matches — and executes only
    the remainder, producing a result bit-identical to an uninterrupted
    run.  A torn trailing record from a mid-write crash is detected and
    discarded; that chunk simply re-runs.

    With telemetry enabled (see :mod:`repro.telemetry`) the campaign
    additionally records phase spans, per-outcome counters and (unless
    ``config.quiet``) a progress heartbeat on stderr — none of which
    feed back into the campaign, so traced and untraced runs produce
    identical results.

    ``config.sampling="stratified"`` dispatches to the adaptive planner
    (see :mod:`repro.faultinject.sampling`): the fire log's dead mass is
    counted exactly, draws are stratified over the live (fire-site stage
    x value role) strata, and each stratum stops once its Wilson-CI
    width converges.  The default uniform mode
    is untouched — plans stay byte-identical to previous releases.
    """
    if config.sampling not in ("uniform", "stratified"):
        raise ValueError(
            f"sampling must be 'uniform' or 'stratified', got {config.sampling!r}"
        )
    if config.sampling == "stratified":
        from repro.faultinject.sampling import run_stratified_campaign

        with telemetry.campaign_heartbeat(config):
            return run_stratified_campaign(
                workload,
                golden_output,
                golden_cycles,
                config,
                spec=spec,
                journal_path=journal_path,
                resume=resume,
            )
    with telemetry.span("campaign.draw_plans"):
        plans = draw_plans(config, golden_cycles)
    with telemetry.span("campaign.group_plans"):
        groups, workers = plan_groups(spec, config, plans)

    with telemetry.campaign_heartbeat(config):
        observe_events.emit(
            "campaign_start",
            mode="uniform",
            kind=config.kind.value,
            total=len(plans),
            workers=workers,
            seed=config.seed,
            journaled=journal_path is not None,
            resume=resume,
            groups=len(groups),
        )
        if config.probe:
            observe_events.emit("note", note="divergence probes on")
        observe_events.emit("note", note=f"{len(groups)} dispatch groups")

        journal: CampaignJournal | None = None
        done: dict[int, list[InjectionResult]] = {}
        if journal_path is not None:
            journal, groups, done, partial = _prepare_journal(
                config, len(plans), journal_path, resume, groups
            )
            if resume:
                observe_events.emit(
                    "journal_resume",
                    replayed=len(done),
                    units=len(groups),
                    injections=sum(len(res) for res in done.values()),
                    discarded_partial=partial,
                )
                note = f"resumed {len(done)}/{len(groups)} journaled chunks"
                if partial:
                    note += " (discarded one torn record)"
                observe_events.emit("note", note=note)
        with telemetry.span("campaign.execute"), journal or contextlib.nullcontext():
            results = execute_plans_parallel(
                spec,
                config,
                plans,
                workers,
                groups=groups,
                local_state=(workload, golden_output, golden_cycles),
                completed=done,
                journal=journal,
            )

        with telemetry.span("campaign.assemble"):
            campaign = assemble_campaign(config, results)
        observe_events.emit(
            "campaign_finish",
            total=campaign.counts.total,
            outcomes={
                "mask": campaign.counts.masked,
                "sdc": campaign.counts.sdc,
                "crash": campaign.counts.crash,
                "hang": campaign.counts.hang,
            },
        )
        return campaign
