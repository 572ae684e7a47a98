"""Adaptive campaign planning: fire-log strata, convergence-stopped sampling.

The paper's resiliency figures come from brute-force uniform injection:
every error site (cycle, register, bit) is drawn uniformly at random and
every cell runs a fixed injection count.  Rare outcome classes (SDC,
HANG) therefore need disproportionately many draws to resolve.  This
module multiplies every per-injection speedup by reducing the *number*
of injections instead:

* the golden run's fire log (:class:`~repro.faultinject.fastforward.FireLog`)
  already decides, for every (cycle, register), whether a flip lands in
  an empty or expired slot or never fires — a run that *is* the golden
  run, outcome MASKED.  One sweep over it gives the **exact dead mass**
  of the uniform draw and splits the live remainder into **strata**
  keyed by (fire-site stage x value role), each with an exactly known
  weight;
* sampling proceeds in **rounds**: every still-unresolved stratum draws
  a fixed number of plans per round from a deterministic per-(round,
  stratum) seed, and a stratum stops as soon as the widest Wilson
  confidence interval across its outcome rates drops below
  ``--ci-width``;
* campaign-level rates are reported both **raw** (what was observed,
  biased toward oversampled strata) and **Horvitz-Thompson reweighted**
  (the dead mass as MASKED plus each stratum's rate scaled by its
  weight), so stratified campaigns stay comparable to the paper's
  uniform figures.

:class:`StratifiedPlanner` holds that state;
:func:`~repro.faultinject.campaign.run_campaign` drives it through the
same round loop, journal and resume path as a uniform campaign, which
is a one-round campaign of the seed's full draw.  Uniform mode is
untouched: ``CampaignConfig(sampling="uniform")`` — the default — draws
plans byte-identically to every previous release, and that invariant is
pinned by a test.  See ``docs/sampling.md`` for the estimator math and
a worked example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import telemetry
from repro.analysis.convergence import wilson_width
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.outcomes import Outcome, OutcomeCounts
from repro.faultinject.parallel import fast_forward_for
from repro.faultinject.registers import NUM_REGISTERS, REGISTER_BITS, RegKind
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.campaign import CampaignConfig, CampaignResult
    from repro.faultinject.fastforward import FireLog
    from repro.faultinject.monitor import InjectionResult
    from repro.faultinject.parallel import WorkloadSpec

#: Recognized ``CampaignConfig.sampling`` values.
SAMPLING_MODES = ("uniform", "stratified")


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------


class Stratum:
    """One live stratum: the (cycle, register) pairs of one (stage, role).

    ``rows`` is an ``(m, 3)`` table of ``(cycle lo, cycle hi, register)``
    with ``[lo, hi)`` half-open; ``mass`` counts the stratum's (cycle,
    register) pairs — its weight numerator over ``golden_cycles x 32``.
    """

    def __init__(self, index: int, stage: str, role: str, rows: Sequence) -> None:
        self.index = index
        self.stage = stage
        self.role = role
        self.rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        #: Row ``r`` covers the draw offsets ``[ends[r] - span, ends[r])``.
        self.ends = np.cumsum(self.rows[:, 1] - self.rows[:, 0])
        self.mass = int(self.ends[-1])

    def draw(
        self, kind: RegKind, n: int, seed: int, round_index: int
    ) -> list[InjectionPlan]:
        """Draw ``n`` uniform plans *within* this stratum, deterministically.

        One offset into the stratum's cycle-register mass picks a row
        with probability proportional to its cycle span and a cycle
        uniformly inside it; the bit is uniform over all 64.  The RNG
        derives from ``(seed, round, stratum)`` alone, so any round of
        any stratum can be re-drawn independently — the property resume
        relies on — and no draw ever consumes another stratum's stream.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(round_index, self.index))
        )
        offsets = rng.integers(0, self.mass, size=n)
        bits = rng.integers(0, REGISTER_BITS, size=n)
        rows = np.searchsorted(self.ends, offsets, side="right")
        cycles = self.rows[rows, 1] - (self.ends[rows] - offsets)
        return [
            InjectionPlan(int(cycle), kind, int(register), int(bit))
            for cycle, register, bit in zip(cycles, self.rows[rows, 2], bits)
        ]


@dataclass(frozen=True)
class Stratification:
    """The uniform plan space as exact dead mass plus live strata.

    Masses count (cycle, register) pairs out of ``golden_cycles x 32``
    (the bit is uniform in every stratum); ``dead`` plus the strata
    masses is exactly that total, so the weights sum to 1 with no
    rounding.
    """

    kind: RegKind
    golden_cycles: int
    dead: int
    strata: tuple[Stratum, ...]

    @property
    def total(self) -> int:
        return self.golden_cycles * NUM_REGISTERS

    @property
    def dead_mass(self) -> float:
        """Probability that a uniform plan is decided MASKED unexecuted."""
        return self.dead / self.total

    def weights(self) -> list[float]:
        """Each stratum's share of the uniform plan space."""
        return [stratum.mass / self.total for stratum in self.strata]

    def to_dict(self) -> dict:
        """JSON-stable description (journal header, store records)."""
        return {
            "kind": self.kind.value,
            "golden_cycles": self.golden_cycles,
            "dead": self.dead,
            "dead_mass": round(self.dead_mass, 9),
            "strata": [
                {
                    "stage": stratum.stage,
                    "role": stratum.role,
                    "mass": stratum.mass,
                    "rows": len(stratum.rows),
                }
                for stratum in self.strata
            ],
        }


def stratify(
    config: "CampaignConfig", golden_cycles: int, fire_log: "FireLog | None" = None
) -> Stratification:
    """The campaign's strata from one sweep over the golden fire log.

    A target cycle in ``(c[k-1], c[k]]`` fires at the ``k``-th
    checkpoint ``config.site_filter`` lets fire.  There every register
    slot holds its last golden write, which is empty, stale or live
    under ``config.liveness`` — exactly what
    :meth:`~repro.faultinject.fastforward.FastForward.predict` decides
    MASKED without a flip per plan.  Empty and stale slots, and the
    targets past the last firing checkpoint, are dead mass; a live
    slot's cycles join the stratum of (fire-site stage, value role),
    the stage being the site's first two dot-parts (``vision.orb``,
    ``imaging.warp``).  A live flip ``predict`` decides because it
    writes only dead state stays in its stratum.  Without a
    fire log (custom workloads, WP) nothing is known to be dead: one
    stratum holds every register over ``[0, golden_cycles)``.
    """
    if golden_cycles <= 0:
        raise ValueError(f"golden_cycles must be positive, got {golden_cycles}")
    kind = config.kind
    dead = 0
    rows: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    if fire_log is None:
        rows[("all", "all")] = [(0, golden_cycles, slot) for slot in range(NUM_REGISTERS)]
    else:
        lo = 0
        for index, cycle in zip(*fire_log.firing_checkpoints(config.site_filter)):
            hi = min(cycle + 1, golden_cycles)
            if hi <= lo:
                continue
            stage = ".".join(fire_log.sites[index].split(".")[:2])
            for slot in range(NUM_REGISTERS):
                write = fire_log.slot_at(kind, slot, index)
                if write is None or not write.live_at(cycle, kind, config.liveness):
                    dead += hi - lo
                else:
                    rows.setdefault((stage, write.role.value), []).append((lo, hi, slot))
            lo = hi
        dead += (golden_cycles - lo) * NUM_REGISTERS
    strata = tuple(
        Stratum(index, stage, role, rows[(stage, role)])
        for index, (stage, role) in enumerate(sorted(rows))
    )
    return Stratification(kind, golden_cycles, dead, strata)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def reweighted_rates(
    weights: Sequence[float], counts: Sequence[OutcomeCounts]
) -> dict[str, float]:
    """Horvitz-Thompson (stratified) estimate of outcome rates.

    Each sampled cell contributes its within-cell rate scaled by its
    population weight: ``p_hat = sum_c W_c * p_hat_c``.  Cells without
    draws carry no information and are excluded, with the remaining
    weights renormalized (when every cell was sampled this rescales the
    weights to sum to 1).  With equal weights and equal per-cell draws
    this reduces exactly to the plain pooled rate — a property the test
    suite pins.  :meth:`StratifiedSummary.unsampled_mass` reports what
    the renormalization covered up.
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
    return max(
        wilson_width(successes, counts.total, z)
        for successes in (counts.masked, counts.sdc, counts.crash, counts.hang)
    )


# ---------------------------------------------------------------------------
# Campaign summary
# ---------------------------------------------------------------------------


@dataclass
class CellStats:
    """What one stratum accumulated over the campaign."""

    counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    draws: int = 0
    #: Round index after which the stratum's widest Wilson CI dropped below
    #: the target width; ``None`` while (or if never) unresolved.
    converged_round: int | None = None


@dataclass
class StratifiedSummary:
    """Everything the stratified planner decided and measured.

    Attached to :class:`~repro.faultinject.campaign.CampaignResult` as
    ``result.sampling`` so reports can show raw next to reweighted
    rates and the per-stratum CI table.
    """

    stratification: Stratification
    #: One entry per stratum, in stratum order.
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

    def _live_estimate(self, estimator) -> dict[str, float]:
        return estimator(
            self.stratification.weights(), [stats.counts for stats in self.cells]
        )

    def ht_rates(self) -> dict[str, float]:
        """Horvitz-Thompson reweighted campaign rates.

        ``dead * [MASK] + sum_s W_s * p_hat_s``: the dead mass is MASKED
        with certainty, and the live strata are reweighted over the live
        mass (renormalized over the sampled strata, see
        :meth:`unsampled_mass`).
        """
        strat = self.stratification
        live = (strat.total - strat.dead) / strat.total
        rates = {key: live * rate for key, rate in self._live_estimate(reweighted_rates).items()}
        rates[Outcome.MASKED.value] += strat.dead_mass
        return rates

    def ht_variance(self) -> dict[str, float]:
        """Variance of :meth:`ht_rates`; the dead mass adds none."""
        strat = self.stratification
        live = (strat.total - strat.dead) / strat.total
        return {
            key: live**2 * variance
            for key, variance in self._live_estimate(reweighted_variance).items()
        }

    def unsampled_mass(self) -> float:
        """Live weight of the strata with no draws.

        The reweighted rates say nothing about this share of the plan
        space (a budget that ran out before every stratum drew); it is
        0 whenever every stratum was sampled.
        """
        strat = self.stratification
        unsampled = sum(
            stratum.mass
            for stratum, stats in zip(strat.strata, self.cells)
            if stats.draws == 0
        )
        return unsampled / strat.total

    def uniform_equivalent_draws(self) -> int:
        """Draws a *uniform* campaign needs to match this precision.

        Uniform sampling hits stratum ``s`` with probability ``W_s``, so
        giving it the ``n_s`` draws it took to converge requires
        ``n_s / W_s`` total draws in expectation; the binding (most
        undersampled-by-uniform) stratum sets the campaign total.  The
        dead mass needs no draws, so it is where most savings come from.
        """
        needed = 0
        for weight, stats in zip(self.stratification.weights(), self.cells):
            if stats.draws > 0:
                needed = max(needed, math.ceil(stats.draws / weight))
        return needed

    def draws_saved(self) -> int:
        """Injections saved vs the uniform campaign of equal precision."""
        return max(0, self.uniform_equivalent_draws() - self.total_draws)

    def to_dict(self) -> dict:
        """JSON-stable summary for stored records and ``--out`` files."""
        cell_rows = []
        weights = self.stratification.weights()
        for stratum, weight, stats in zip(self.stratification.strata, weights, self.cells):
            cell_rows.append(
                {
                    "cell": stratum.index,
                    "stage": stratum.stage,
                    "role": stratum.role,
                    "weight": round(weight, 9),
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
            "unsampled_mass": round(self.unsampled_mass(), 9),
            "cells_converged": self.cells_converged,
            "raw_rates": {k: round(v, 6) for k, v in self.raw_rates().items()},
            "ht_rates": {k: round(v, 6) for k, v in self.ht_rates().items()},
            "cells": cell_rows,
        }


# ---------------------------------------------------------------------------
# The adaptive planner
# ---------------------------------------------------------------------------


class StratifiedPlanner:
    """Round-by-round stratified campaign state: plans out, results in.

    :func:`~repro.faultinject.campaign.run_campaign` drives it like any
    planner: :meth:`next_round` until it is empty, feeding each round's
    ordered results to :meth:`absorb_round`.  A resumed round absorbs
    through the same call as a live one, which is what makes an
    interrupted-then-resumed stratified campaign bit-identical to an
    uninterrupted one.
    """

    def __init__(self, stratification: Stratification, config: "CampaignConfig") -> None:
        self.stratification = stratification
        self.config = config
        self.cells = [CellStats() for _ in stratification.strata]
        self.results: list["InjectionResult"] = []
        self.rounds_done = 0
        self.budget_exhausted = False
        self.allocation: list[tuple[int, int]] = []

    @classmethod
    def for_campaign(
        cls, config: "CampaignConfig", golden_cycles: int, spec: "WorkloadSpec | None"
    ) -> "StratifiedPlanner":
        """Validate the stratified knobs and stratify ``spec``'s fire log."""
        _validate_stratified_config(config)
        ff = fast_forward_for(spec, config)
        return cls(
            stratify(config, golden_cycles, ff.tape.fire_log if ff is not None else None),
            config,
        )

    @property
    def total_draws(self) -> int:
        return len(self.results)

    def start_fields(self, groups: list[list[int]]) -> tuple[dict, str]:
        """``campaign_start`` fields and the banner note of this mode."""
        strat = self.stratification
        fields = dict(
            total=None,
            cells=len(strat.strata),
            dead_mass=round(strat.dead_mass, 6),
            ci_width=self.config.ci_width,
        )
        return fields, (
            f"stratified sampling on: {len(strat.strata)} strata, "
            f"dead mass {strat.dead_mass:.4f}, ci-width target {self.config.ci_width:g}"
        )

    def budget_left(self) -> int | None:
        if self.config.max_injections is None:
            return None
        return max(0, self.config.max_injections - self.total_draws)

    def next_round(self) -> list[InjectionPlan]:
        """The next round's plans; empty once every stratum converged or
        the budget ran out."""
        with telemetry.span("campaign.sampling.draw_round"):
            self.allocation = self.allocate()
            return self.plan_round(self.allocation)

    def absorb_round(self, results: list["InjectionResult"]) -> None:
        """Fold one round's ordered results into the stratum statistics.

        The results come in the order of the round's allocation, ``k``
        plans per stratum.
        """
        position = 0
        for index, k in self.allocation:
            stats = self.cells[index]
            for result in results[position : position + k]:
                stats.counts.add(result.outcome, result.crash_kind)
            stats.draws += k
            position += k
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
        telemetry.counter_inc("campaign.sampling.rounds")
        if observe_events.enabled():
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
        observe_events.emit(
            "note",
            note=f"round {self.rounds_done}: {self.total_draws} draws, "
            f"{converged}/{len(self.cells)} strata converged",
        )

    def allocate(self) -> list[tuple[int, int]]:
        """``(stratum, draws)`` of the next round, for every unresolved stratum.

        A pure function of ``(rounds_done, unconverged strata, remaining
        budget)`` — all of which a resume rebuilds identically — in
        ascending stratum order so the budget truncates
        deterministically.
        """
        budget = self.budget_left()
        allocation: list[tuple[int, int]] = []
        planned = 0
        for index, stats in enumerate(self.cells):
            if stats.converged_round is not None:
                continue
            k = self.config.round_size
            if budget is not None:
                k = min(k, budget - planned)
            if k <= 0:
                self.budget_exhausted = True
                break
            allocation.append((index, k))
            planned += k
        return allocation

    def plan_round(self, allocation: list[tuple[int, int]]) -> list[InjectionPlan]:
        """Draw the round's plans, stratum by stratum."""
        return [
            plan
            for index, k in allocation
            for plan in self.stratification.strata[index].draw(
                self.config.kind, k, self.config.seed, self.rounds_done
            )
        ]

    def finish(self, campaign: "CampaignResult") -> dict:
        """Attach the summary to ``campaign``; return the extra
        ``campaign_finish`` fields."""
        summary = campaign.sampling = StratifiedSummary(
            stratification=self.stratification,
            cells=self.cells,
            ci_width=self.config.ci_width,
            rounds=self.rounds_done,
            total_draws=self.total_draws,
            budget_exhausted=self.budget_exhausted,
        )
        telemetry.counter_inc("campaign.sampling.cells_converged", summary.cells_converged)
        telemetry.counter_inc("campaign.sampling.draws_saved", summary.draws_saved())
        return {"rounds": summary.rounds, "cells_converged": summary.cells_converged}


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
