"""Edge cases for the injection-sufficiency machinery.

These are the degenerate inputs the stratified planner leans on:
empty, constant and oscillating rate series for the knee detector,
zero histograms for coverage uniformity, and the n=0 / n=1 extremes of
the Wilson-CI width that drive per-cell convergence stopping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import coverage_uniformity, knee_point, wilson_width
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.outcomes import Outcome, OutcomeCounts, RunningRates
from repro.faultinject.registers import RegKind
from tests.analysis.test_convergence import build_running
from tests.faultinject.test_parallel import toy_workload


class TestKneeEdges:
    def test_empty_series_has_no_knee(self):
        assert knee_point(RunningRates()) is None

    def test_single_point_series_settles_immediately(self):
        running = build_running([Outcome.MASKED])
        assert knee_point(running) == 1

    def test_constant_series_settles_at_first_checkpoint(self):
        running = build_running([Outcome.CRASH] * 50)
        assert knee_point(running, tolerance=0.0) == 1

    def test_oscillating_series_never_settles_below_amplitude(self):
        # mask rate alternates 1, 1/2, 2/3, 2/4, ... — every prefix of
        # the alternation deviates from the 0.5 limit by ~1/(2n), so a
        # tolerance far below the tail oscillation leaves no knee before
        # the very last checkpoints.
        outcomes = [Outcome.MASKED, Outcome.CRASH] * 20
        running = build_running(outcomes)
        knee = knee_point(running, tolerance=1e-9)
        assert knee is None or knee >= len(outcomes) - 1

    def test_oscillating_series_settles_within_amplitude(self):
        outcomes = [Outcome.MASKED, Outcome.CRASH] * 200
        running = build_running(outcomes)
        knee = knee_point(running, tolerance=0.05)
        assert knee is not None
        assert knee <= 25


class TestCoverageEdges:
    def test_zero_histogram_is_defined_and_zero(self):
        assert coverage_uniformity(np.zeros(64)) == 0.0

    def test_single_nonzero_bin_scales_with_size(self):
        small = np.zeros(4)
        small[0] = 4
        large = np.zeros(64)
        large[0] = 64
        assert coverage_uniformity(large) > coverage_uniformity(small)

    def test_accepts_plain_lists(self):
        assert coverage_uniformity([1, 1, 1, 1]) == 0.0


class TestWilsonWidthEdges:
    def test_no_samples_is_maximally_unresolved(self):
        assert wilson_width(0, 0) == 1.0

    def test_one_sample_is_wide_but_below_one(self):
        width = wilson_width(1, 1)
        assert 0.5 < width < 1.0
        assert wilson_width(0, 1) == pytest.approx(width)

    def test_symmetric_in_successes(self):
        assert wilson_width(3, 10) == pytest.approx(wilson_width(7, 10))

    def test_decreases_with_samples(self):
        # Hold the point estimate at 0.5 so only n varies (at mixed
        # tiny n the estimate itself moves and the width need not be
        # monotone).
        widths = [wilson_width(n // 2, n) for n in (2, 8, 32, 128, 512)]
        assert widths == sorted(widths, reverse=True)

    def test_scales_with_z(self):
        assert wilson_width(5, 20, z=2.58) > wilson_width(5, 20, z=1.96)

    def test_degenerate_cell_still_needs_samples(self):
        # All-masked cells are not instantly converged: at width target
        # 0.02 a zero-variance rate still needs ~z^2/width samples
        # before the Wilson interval closes.
        assert wilson_width(10, 10) > 0.02
        assert wilson_width(500, 500) < 0.02


class TestNeverConvergingCell:
    def test_unreachable_width_stops_at_the_budget(self):
        """A cell that cannot converge must hit --max-injections cleanly."""
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        golden = toy_workload(ctx)
        config = CampaignConfig(
            n_injections=1,
            kind=RegKind.GPR,
            seed=3,
            workers=1,
            sampling="stratified",
            # A width no finite sample count on this toy can reach
            # within the budget.
            ci_width=0.001,
            round_size=8,
            max_injections=64,
        )
        campaign = run_campaign(toy_workload, golden, ctx.cycles, config)
        summary = campaign.sampling
        assert summary.budget_exhausted
        assert summary.total_draws == 64
        assert summary.cells_converged == 0
        for stats in summary.cells:
            assert stats.converged_round is None
