"""Adaptive campaign planning: stratified, convergence-stopped sampling.

The paper's resiliency figures come from brute-force uniform injection:
every error site is drawn uniformly at random and every cell runs a
fixed injection count.  Rare outcome classes (SDC, HANG) therefore need
disproportionately many draws to resolve.  This module multiplies every
per-injection speedup by reducing the *number* of injections instead:

* the uniform error-site space is **stratified** over
  (register-class x bit-octet x resume-boundary) cells, each a product
  of index ranges with an exactly known population weight;
* sampling proceeds in **rounds**: every still-unresolved cell draws a
  fixed number of plans per round from a deterministic per-(round,
  cell) seed, and a cell stops as soon as the widest Wilson confidence
  interval across its outcome rates drops below ``--ci-width``;
* campaign-level rates are reported both **raw** (what was observed,
  biased toward oversampled strata) and **Horvitz-Thompson reweighted**
  (each cell's rate scaled by its population weight), so stratified
  campaigns stay comparable to the paper's uniform figures.

Uniform mode is untouched: ``CampaignConfig(sampling="uniform")`` —
the default — draws plans byte-identically to every previous release,
and that invariant is pinned by a test.  See ``docs/sampling.md`` for
the estimator math and a worked example.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import telemetry
from repro.analysis.convergence import wilson_width
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.journal import (
    CampaignJournal,
    JournalError,
    config_fingerprint,
    load_journal,
    require_sampling_mode,
)
from repro.faultinject.outcomes import Outcome, OutcomeCounts
from repro.faultinject.parallel import execute_plans_parallel, fast_forward_for, plan_groups
from repro.faultinject.registers import NUM_REGISTERS, REGISTER_BITS, RegKind
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.campaign import CampaignConfig, CampaignResult
    from repro.faultinject.monitor import InjectionResult, Workload
    from repro.faultinject.parallel import WorkloadSpec

#: Recognized ``CampaignConfig.sampling`` values.
SAMPLING_MODES = ("uniform", "stratified")

#: Default stratification grid: (register classes, bit octets, max
#: cycle strata).  Register classes and bit octets must divide the
#: register/bit counts; cycle strata are either the golden run's frame
#: boundaries (capped at the grid value) or equal-width cycle buckets
#: when no snapshot tape is available.
DEFAULT_STRATA = (4, 8, 8)


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumCell:
    """One stratum: a product of half-open index ranges.

    ``weight`` is the cell's exact share of the uniform plan space —
    the probability that one uniformly drawn plan lands in this cell —
    so the weights of a full stratification sum to 1.
    """

    index: int
    registers: tuple[int, int]  # [lo, hi)
    bits: tuple[int, int]  # [lo, hi)
    cycles: tuple[int, int]  # [lo, hi)
    weight: float

    def describe(self) -> str:
        """Compact human-readable cell label."""
        return (
            f"r{self.registers[0]}-{self.registers[1] - 1}/"
            f"b{self.bits[0]}-{self.bits[1] - 1}/"
            f"c{self.cycles[0]}-{self.cycles[1] - 1}"
        )


def uniform_cycle_edges(total_cycles: int, n_strata: int) -> list[int]:
    """Equal-width cycle stratum edges (the no-tape fallback)."""
    if total_cycles <= 0:
        raise ValueError(f"total_cycles must be positive, got {total_cycles}")
    n_strata = max(1, min(n_strata, total_cycles))
    edges = np.linspace(0, total_cycles, n_strata + 1).astype(int)
    return sorted(set(int(edge) for edge in edges))


def boundary_cycle_edges(
    boundary_cycles: Sequence[int], total_cycles: int, max_strata: int
) -> list[int]:
    """Cycle stratum edges derived from golden frame boundaries.

    Plans within one stratum share (or are near) the same fast-forward
    resume boundary, which is exactly the grouping the boundary fan-out
    scheduler amortizes over.  When the tape has more boundaries than
    ``max_strata``, an evenly spaced subset of edges is kept so the
    stratification stays coarse enough to resolve.
    """
    interior = sorted({int(c) for c in boundary_cycles if 0 < int(c) < total_cycles})
    edges = [0, *interior, total_cycles]
    if len(edges) - 1 <= max_strata:
        return edges
    keep = np.linspace(0, len(edges) - 1, max_strata + 1).astype(int)
    return [edges[int(i)] for i in sorted(set(keep.tolist()))]


@dataclass(frozen=True)
class Stratification:
    """A full partition of the uniform plan space into strata cells."""

    kind: RegKind
    total_cycles: int
    register_classes: int
    bit_octets: int
    cycle_edges: tuple[int, ...]
    cells: tuple[StratumCell, ...] = field(default=())

    @classmethod
    def build(
        cls,
        kind: RegKind,
        total_cycles: int,
        cycle_edges: Sequence[int] | None = None,
        register_classes: int = DEFAULT_STRATA[0],
        bit_octets: int = DEFAULT_STRATA[1],
    ) -> "Stratification":
        """Build the cell grid; cells partition the plan space exactly."""
        if total_cycles <= 0:
            raise ValueError(f"total_cycles must be positive, got {total_cycles}")
        if register_classes < 1 or NUM_REGISTERS % register_classes:
            raise ValueError(
                f"register_classes must divide {NUM_REGISTERS}, got {register_classes}"
            )
        if bit_octets < 1 or REGISTER_BITS % bit_octets:
            raise ValueError(f"bit_octets must divide {REGISTER_BITS}, got {bit_octets}")
        if cycle_edges is None:
            cycle_edges = uniform_cycle_edges(total_cycles, DEFAULT_STRATA[2])
        edges = tuple(int(edge) for edge in cycle_edges)
        if len(edges) < 2 or edges[0] != 0 or edges[-1] != total_cycles:
            raise ValueError(
                f"cycle_edges must run from 0 to total_cycles={total_cycles}, got {edges!r}"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"cycle_edges must be strictly increasing, got {edges!r}")
        reg_span = NUM_REGISTERS // register_classes
        bit_span = REGISTER_BITS // bit_octets
        cells: list[StratumCell] = []
        for reg_class in range(register_classes):
            for octet in range(bit_octets):
                for lo, hi in zip(edges, edges[1:]):
                    cells.append(
                        StratumCell(
                            index=len(cells),
                            registers=(reg_class * reg_span, (reg_class + 1) * reg_span),
                            bits=(octet * bit_span, (octet + 1) * bit_span),
                            cycles=(lo, hi),
                            weight=(reg_span / NUM_REGISTERS)
                            * (bit_span / REGISTER_BITS)
                            * ((hi - lo) / total_cycles),
                        )
                    )
        return cls(
            kind=kind,
            total_cycles=total_cycles,
            register_classes=register_classes,
            bit_octets=bit_octets,
            cycle_edges=edges,
            cells=tuple(cells),
        )

    def cell_index_for(self, plan: InjectionPlan) -> int:
        """The cell containing one plan (cells partition the space)."""
        reg_span = NUM_REGISTERS // self.register_classes
        bit_span = REGISTER_BITS // self.bit_octets
        cycle_stratum = bisect.bisect_right(self.cycle_edges, plan.target_cycle) - 1
        cycle_stratum = min(max(cycle_stratum, 0), len(self.cycle_edges) - 2)
        n_cycle = len(self.cycle_edges) - 1
        return (
            (plan.register // reg_span) * self.bit_octets + plan.bit // bit_span
        ) * n_cycle + cycle_stratum

    def to_dict(self) -> dict:
        """JSON-stable description (journal header, store records)."""
        return {
            "kind": self.kind.value,
            "total_cycles": self.total_cycles,
            "register_classes": self.register_classes,
            "bit_octets": self.bit_octets,
            "cycle_edges": list(self.cycle_edges),
        }


def draw_cell_plans(
    cell: StratumCell, kind: RegKind, n: int, seed: int, round_index: int
) -> list[InjectionPlan]:
    """Draw ``n`` uniform plans *within* one cell, deterministically.

    The RNG derives from ``(seed, round, cell)`` alone, so any round of
    any cell can be re-drawn independently — the property resume relies
    on — and no draw ever consumes another cell's stream.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(round_index, cell.index))
    )
    return [
        InjectionPlan(
            target_cycle=int(rng.integers(cell.cycles[0], cell.cycles[1])),
            kind=kind,
            register=int(rng.integers(cell.registers[0], cell.registers[1])),
            bit=int(rng.integers(cell.bits[0], cell.bits[1])),
        )
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def reweighted_rates(
    weights: Sequence[float], counts: Sequence[OutcomeCounts]
) -> dict[str, float]:
    """Horvitz-Thompson (stratified) estimate of campaign outcome rates.

    Each sampled cell contributes its within-cell rate scaled by its
    population weight: ``p_hat = sum_c W_c * p_hat_c``.  Cells without
    draws carry no information and are excluded, with the remaining
    weights renormalized (when every cell was sampled the weights sum
    to 1 and the renormalization is a float-hygiene no-op).  With equal
    weights and equal per-cell draws this reduces exactly to the plain
    pooled rate — a property the test suite pins.
    """
    if len(weights) != len(counts):
        raise ValueError(
            f"got {len(weights)} weights for {len(counts)} cell counts"
        )
    sampled = [(w, c) for w, c in zip(weights, counts) if c.total > 0]
    if not sampled:
        return {outcome.value: 0.0 for outcome in Outcome}
    total_weight = sum(w for w, _ in sampled)
    return {
        outcome.value: sum(w * c.rate(outcome) for w, c in sampled) / total_weight
        for outcome in Outcome
    }


def reweighted_variance(
    weights: Sequence[float], counts: Sequence[OutcomeCounts]
) -> dict[str, float]:
    """Variance of the Horvitz-Thompson estimate per outcome class.

    The standard stratified-sampling variance ``sum_c W_c^2 *
    p_c(1-p_c)/n_c`` with the plug-in within-cell rates; cells without
    draws are excluded exactly as in :func:`reweighted_rates`.
    """
    sampled = [(w, c) for w, c in zip(weights, counts) if c.total > 0]
    if not sampled:
        return {outcome.value: 0.0 for outcome in Outcome}
    total_weight = sum(w for w, _ in sampled)
    out = {}
    for outcome in Outcome:
        variance = 0.0
        for w, c in sampled:
            p = c.rate(outcome)
            variance = variance + (w / total_weight) ** 2 * p * (1.0 - p) / c.total
        out[outcome.value] = variance
    return out


def cell_max_ci_width(counts: OutcomeCounts, z: float = 1.96) -> float:
    """Widest Wilson CI across a cell's outcome classes (1.0 at n=0).

    A cell has *converged* when every outcome rate is resolved, so the
    convergence check uses the worst (widest) interval.
    """
    if counts.total == 0:
        return 1.0
    per_outcome = {
        Outcome.MASKED: counts.masked,
        Outcome.SDC: counts.sdc,
        Outcome.CRASH: counts.crash,
        Outcome.HANG: counts.hang,
    }
    return max(
        wilson_width(successes, counts.total, z) for successes in per_outcome.values()
    )


# ---------------------------------------------------------------------------
# Campaign summary
# ---------------------------------------------------------------------------


@dataclass
class CellStats:
    """What one stratum accumulated over the campaign."""

    counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    draws: int = 0
    #: Round index after which the cell's widest Wilson CI dropped below
    #: the target width; ``None`` while (or if never) unresolved.
    converged_round: int | None = None


@dataclass
class StratifiedSummary:
    """Everything the stratified planner decided and measured.

    Attached to :class:`~repro.faultinject.campaign.CampaignResult` as
    ``result.sampling`` so reports can show raw next to reweighted
    rates and the per-cell CI table.
    """

    stratification: Stratification
    cells: list[CellStats]
    ci_width: float
    rounds: int
    total_draws: int
    budget_exhausted: bool

    @property
    def cells_converged(self) -> int:
        return sum(1 for stats in self.cells if stats.converged_round is not None)

    def raw_rates(self) -> dict[str, float]:
        """Pooled observed rates (biased toward oversampled strata)."""
        pooled = OutcomeCounts()
        for stats in self.cells:
            pooled.masked += stats.counts.masked
            pooled.sdc += stats.counts.sdc
            pooled.crash_segv += stats.counts.crash_segv
            pooled.crash_abort += stats.counts.crash_abort
            pooled.hang += stats.counts.hang
        return pooled.rates()

    def ht_rates(self) -> dict[str, float]:
        """Horvitz-Thompson reweighted campaign rates."""
        return reweighted_rates(
            [cell.weight for cell in self.stratification.cells],
            [stats.counts for stats in self.cells],
        )

    def ht_variance(self) -> dict[str, float]:
        return reweighted_variance(
            [cell.weight for cell in self.stratification.cells],
            [stats.counts for stats in self.cells],
        )

    def uniform_equivalent_draws(self) -> int:
        """Draws a *uniform* campaign needs to match this precision.

        Uniform sampling hits cell ``c`` with probability ``W_c``, so
        giving it the ``n_c`` draws it took to converge requires
        ``n_c / W_c`` total draws in expectation; the binding (most
        undersampled-by-uniform) cell sets the campaign total.
        """
        needed = 0
        for cell, stats in zip(self.stratification.cells, self.cells):
            if stats.draws > 0:
                needed = max(needed, math.ceil(stats.draws / cell.weight))
        return needed

    def draws_saved(self) -> int:
        """Injections saved vs the uniform campaign of equal precision."""
        return max(0, self.uniform_equivalent_draws() - self.total_draws)

    def to_dict(self) -> dict:
        """JSON-stable summary for stored records and ``--out`` files."""
        cell_rows = []
        for cell, stats in zip(self.stratification.cells, self.cells):
            cell_rows.append(
                {
                    "cell": cell.index,
                    "registers": list(cell.registers),
                    "bits": list(cell.bits),
                    "cycles": list(cell.cycles),
                    "weight": round(cell.weight, 9),
                    "draws": stats.draws,
                    "counts": {
                        "masked": stats.counts.masked,
                        "sdc": stats.counts.sdc,
                        "crash_segv": stats.counts.crash_segv,
                        "crash_abort": stats.counts.crash_abort,
                        "hang": stats.counts.hang,
                    },
                    "max_ci_width": round(cell_max_ci_width(stats.counts), 6),
                    "converged_round": stats.converged_round,
                }
            )
        return {
            "mode": "stratified",
            "stratification": self.stratification.to_dict(),
            "ci_width": self.ci_width,
            "rounds": self.rounds,
            "draws": self.total_draws,
            "uniform_equivalent_draws": self.uniform_equivalent_draws(),
            "draws_saved": self.draws_saved(),
            "budget_exhausted": self.budget_exhausted,
            "cells_converged": self.cells_converged,
            "raw_rates": {k: round(v, 6) for k, v in self.raw_rates().items()},
            "ht_rates": {k: round(v, 6) for k, v in self.ht_rates().items()},
            "cells": cell_rows,
        }


# ---------------------------------------------------------------------------
# The adaptive planner / driver
# ---------------------------------------------------------------------------


class _StratifiedState:
    """Mutable round-by-round campaign state (shared by replay and live).

    Keeping one update path for journal-replayed and freshly executed
    rounds is what makes an interrupted-then-resumed stratified campaign
    bit-identical to an uninterrupted one.
    """

    def __init__(self, stratification: Stratification, config: "CampaignConfig") -> None:
        self.stratification = stratification
        self.config = config
        self.cells = [CellStats() for _ in stratification.cells]
        self.results: list["InjectionResult"] = []
        self.rounds_done = 0
        self.budget_exhausted = False

    @property
    def total_draws(self) -> int:
        return len(self.results)

    def unconverged(self) -> list[int]:
        return [
            index
            for index, stats in enumerate(self.cells)
            if stats.converged_round is None
        ]

    def budget_left(self) -> int | None:
        if self.config.max_injections is None:
            return None
        return max(0, self.config.max_injections - self.total_draws)

    def absorb_round(self, results: list["InjectionResult"]) -> None:
        """Fold one round's ordered results into the cell statistics."""
        for result in results:
            stats = self.cells[self.stratification.cell_index_for(result.plan)]
            stats.counts.add(result.outcome, result.crash_kind)
            stats.draws += 1
        self.results.extend(results)
        newly_converged: list[int] = []
        for index, stats in enumerate(self.cells):
            if (
                stats.converged_round is None
                and stats.draws > 0
                and cell_max_ci_width(stats.counts) <= self.config.ci_width
            ):
                stats.converged_round = self.rounds_done
                newly_converged.append(index)
        self.rounds_done += 1
        if observe_events.enabled():
            # Emitted from the one shared update path, so a journal
            # replay reconstructs exactly the live run's round events.
            self._emit_round(newly_converged)

    def _emit_round(self, newly_converged: list[int]) -> None:
        for cell_index in newly_converged:
            stats = self.cells[cell_index]
            observe_events.emit(
                "stratum_converged",
                cell=cell_index,
                round=stats.converged_round,
                draws=stats.draws,
                ci_width=round(cell_max_ci_width(stats.counts), 6),
            )
        totals = {"mask": 0, "sdc": 0, "crash": 0, "hang": 0}
        widths: list[float] = []
        open_widths: list[float] = []
        for stats in self.cells:
            totals["mask"] += stats.counts.masked
            totals["sdc"] += stats.counts.sdc
            totals["crash"] += stats.counts.crash
            totals["hang"] += stats.counts.hang
            if stats.draws == 0:
                continue
            width = round(cell_max_ci_width(stats.counts), 6)
            widths.append(width)
            if stats.converged_round is None:
                open_widths.append(width)
        converged = sum(
            1 for stats in self.cells if stats.converged_round is not None
        )
        observe_events.emit(
            "round_done",
            round=self.rounds_done - 1,
            done=self.total_draws,
            outcomes_total=totals,
            cells_total=len(self.cells),
            cells_converged=converged,
            max_ci_width=max(open_widths) if open_widths else 0.0,
            cell_ci_widths=widths,
        )

    def plan_round(self) -> list[InjectionPlan]:
        """Draw the next round's plans for every unresolved cell.

        A pure function of ``(seed, rounds_done, unconverged cells,
        remaining budget)`` — all of which replay identically from the
        journal — drawn in ascending cell order so the budget truncates
        deterministically.
        """
        budget = self.budget_left()
        plans: list[InjectionPlan] = []
        for cell_index in self.unconverged():
            k = self.config.round_size
            if budget is not None:
                k = min(k, budget - len(plans))
            if k <= 0:
                self.budget_exhausted = True
                break
            plans.extend(
                draw_cell_plans(
                    self.stratification.cells[cell_index],
                    self.config.kind,
                    k,
                    self.config.seed,
                    self.rounds_done,
                )
            )
        return plans

    def summary(self) -> StratifiedSummary:
        return StratifiedSummary(
            stratification=self.stratification,
            cells=self.cells,
            ci_width=self.config.ci_width,
            rounds=self.rounds_done,
            total_draws=self.total_draws,
            budget_exhausted=self.budget_exhausted,
        )


def build_stratification(
    config: "CampaignConfig", golden_cycles: int, fast_forward=None
) -> Stratification:
    """The campaign's cell grid from its config and golden run.

    Cycle strata follow the snapshot tape's frame boundaries when a
    fast-forward handle exists (so strata align with the boundary
    fan-out scheduler's groups), else equal-width cycle buckets.
    """
    register_classes, bit_octets, max_cycle = config.strata
    if max_cycle < 1:
        raise ValueError(f"strata cycle count must be >= 1, got {max_cycle}")
    tape = getattr(fast_forward, "tape", None)
    boundary_cycles = getattr(tape, "boundary_cycles", None)
    if boundary_cycles:
        edges = boundary_cycle_edges(boundary_cycles, golden_cycles, max_cycle)
    else:
        edges = uniform_cycle_edges(golden_cycles, max_cycle)
    return Stratification.build(
        config.kind,
        golden_cycles,
        cycle_edges=edges,
        register_classes=register_classes,
        bit_octets=bit_octets,
    )


def _validate_stratified_config(config: "CampaignConfig") -> None:
    # A zero width would never converge; the campaign would only stop at
    # the max_injections budget, so require a real target instead.
    if not 0.0 < config.ci_width <= 1.0:
        raise ValueError(f"ci_width must be in (0, 1], got {config.ci_width}")
    if config.round_size < 1:
        raise ValueError(f"round_size must be >= 1, got {config.round_size}")
    if config.max_injections is not None and config.max_injections < 1:
        raise ValueError(
            f"max_injections must be >= 1 (or None), got {config.max_injections}"
        )


def _prepare_stratified_journal(
    config: "CampaignConfig",
    stratification: Stratification,
    journal_path: Path,
    resume: bool,
) -> tuple[CampaignJournal, list[list["InjectionResult"]], bool]:
    """Open (or reopen) a round-granularity journal.

    Returns ``(journal, replayable_rounds, discarded_partial)``.  Only
    the contiguous prefix of journaled rounds replays: round ``k``'s
    draws depend on the statistics of rounds ``< k``, so a gap (one
    corrupt mid-file record) invalidates everything after it — those
    rounds simply re-run and are re-appended.
    """
    journal_path = Path(journal_path)
    if not resume:
        journal = CampaignJournal.create(
            journal_path, config, stratification=stratification.to_dict()
        )
        return journal, [], False
    state = load_journal(journal_path)
    require_sampling_mode(state.fingerprint, config, journal_path)
    fingerprint = config_fingerprint(config)
    if state.fingerprint != fingerprint:
        raise JournalError(
            f"journal {journal_path} was written by a different campaign "
            f"configuration (journal {state.fingerprint} vs requested "
            f"{fingerprint}); refusing to mix results"
        )
    if state.stratification != stratification.to_dict():
        raise JournalError(
            f"journal {journal_path} records a different stratification "
            f"({state.stratification!r} vs {stratification.to_dict()!r}); "
            f"the golden run or strata grid drifted since it was written"
        )
    replayable: list[list["InjectionResult"]] = []
    while len(replayable) in state.rounds:
        replayable.append(state.rounds[len(replayable)])
    journal = CampaignJournal.append_to(journal_path, chunks_written=len(replayable))
    return journal, replayable, state.discarded_partial


def run_stratified_campaign(
    workload: "Workload",
    golden_output: np.ndarray,
    golden_cycles: int,
    config: "CampaignConfig",
    spec: "WorkloadSpec | None" = None,
    journal_path: Path | None = None,
    resume: bool = False,
) -> "CampaignResult":
    """Run one adaptive, stratified, convergence-stopped campaign.

    Fully deterministic given ``config.seed``: every round's draws
    derive from ``(seed, round, cell)``, every run's injector RNG from
    ``(seed, global draw index)``, and the set of cells sampled each
    round is a pure function of the accumulated statistics — so a
    journaled campaign interrupted at any round boundary (or killed
    mid-round) resumes bit-identically, and worker count never changes
    results.  Rounds reuse the campaign scheduler: each round's plans
    are grouped by :func:`~repro.faultinject.parallel.plan_groups`
    exactly as a uniform campaign's would be.
    """
    # Lazy import: campaign.run_campaign dispatches into this module, so
    # a module-level import either way would be circular.
    from repro.faultinject.campaign import assemble_campaign

    _validate_stratified_config(config)
    ff = fast_forward_for(spec, config)
    stratification = build_stratification(config, golden_cycles, fast_forward=ff)
    state = _StratifiedState(stratification, config)

    observe_events.emit(
        "campaign_start",
        mode="stratified",
        kind=config.kind.value,
        total=None,
        workers=config.workers,
        seed=config.seed,
        journaled=journal_path is not None,
        resume=resume,
        cells=len(stratification.cells),
        ci_width=config.ci_width,
    )
    heartbeat = (
        telemetry.Heartbeat(
            0,
            label=f"campaign {config.kind.value} (stratified)",
            interval_s=telemetry.resolve_heartbeat_interval(config.heartbeat_interval),
            quiet=config.quiet or not telemetry.enabled(),
        )
        if telemetry.enabled() or observe_events.enabled()
        else None
    )
    annotate = heartbeat.annotate if heartbeat is not None else None
    if annotate is not None:
        annotate(
            f"stratified sampling on: {len(stratification.cells)} cells, "
            f"ci-width target {config.ci_width:g}"
        )

    journal: CampaignJournal | None = None
    replayed: list[list["InjectionResult"]] = []
    if journal_path is not None:
        journal, replayed, partial = _prepare_stratified_journal(
            config, stratification, journal_path, resume
        )
        for round_results in replayed:
            state.absorb_round(round_results)
        if resume:
            observe_events.emit(
                "journal_resume",
                replayed=len(replayed),
                units=None,
                injections=state.total_draws,
                discarded_partial=partial,
            )
            if annotate is not None:
                note = f"resumed {len(replayed)} journaled round(s)"
                if partial:
                    note += " (discarded one torn record)"
                annotate(note)

    try:
        with telemetry.span("campaign.execute"):
            while True:
                unconverged = state.unconverged()
                if not unconverged:
                    break
                budget = state.budget_left()
                if budget is not None and budget <= 0:
                    state.budget_exhausted = True
                    break
                with telemetry.span("campaign.sampling.draw_round"):
                    plans = state.plan_round()
                if not plans:
                    break
                groups, workers = plan_groups(spec, config, plans)
                results = execute_plans_parallel(
                    spec,
                    config,
                    plans,
                    workers,
                    groups=groups,
                    local_state=(workload, golden_output, golden_cycles),
                    annotate=annotate,
                    index_base=state.total_draws,
                )
                if journal is not None:
                    # Durability first: a round only counts once fsync'd.
                    # May raise CampaignInterrupted (abort-after hook).
                    journal.append_round(state.rounds_done, results)
                state.absorb_round(results)
                telemetry.counter_inc("campaign.sampling.rounds")
                if annotate is not None:
                    converged = sum(
                        1 for s in state.cells if s.converged_round is not None
                    )
                    annotate(
                        f"round {state.rounds_done}: {state.total_draws} draws, "
                        f"{converged}/{len(state.cells)} cells converged"
                    )
    finally:
        if journal is not None:
            journal.close()

    summary = state.summary()
    telemetry.counter_inc("campaign.sampling.cells_converged", summary.cells_converged)
    telemetry.counter_inc("campaign.sampling.draws_saved", summary.draws_saved())
    with telemetry.span("campaign.assemble"):
        campaign = assemble_campaign(config, state.results)
    campaign.sampling = summary
    observe_events.emit(
        "campaign_finish",
        total=campaign.counts.total,
        outcomes={
            "mask": campaign.counts.masked,
            "sdc": campaign.counts.sdc,
            "crash": campaign.counts.crash,
            "hang": campaign.counts.hang,
        },
        rounds=summary.rounds,
        cells_converged=summary.cells_converged,
    )
    return campaign
