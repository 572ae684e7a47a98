"""Integration tests: injected VS runs produce the designed outcome mix.

These exercise the full stack — synthetic video, VS pipeline, register
model, address space, monitor — with small but real campaigns.
"""

import numpy as np
import pytest

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.outcomes import Outcome
from repro.faultinject.registers import RegKind
from repro.runtime.context import ExecutionContext
from repro.summarize.golden import clear_golden_cache, golden_run
from repro.summarize.pipeline import run_vs


@pytest.fixture(scope="module")
def campaign_setup():
    """A golden run and workload over a very small input."""
    from repro.summarize.config import VSConfig
    from repro.video.synthetic import make_input2

    stream = make_input2(n_frames=10)
    config = VSConfig()
    clear_golden_cache()
    golden = golden_run(stream, config)

    def workload(ctx: ExecutionContext) -> np.ndarray:
        return run_vs(stream, config, ctx).panorama

    return workload, golden


class TestGPRCampaign:
    @pytest.fixture(scope="class")
    def gpr_campaign(self, campaign_setup):
        workload, golden = campaign_setup
        config = CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=17)
        return run_campaign(workload, golden.output, golden.total_cycles, config)

    def test_all_runs_classified(self, gpr_campaign):
        assert gpr_campaign.counts.total == 60

    def test_crashes_present(self, gpr_campaign):
        """GPR flips must produce a substantial crash population."""
        assert gpr_campaign.counts.crash >= 10

    def test_masking_present(self, gpr_campaign):
        assert gpr_campaign.counts.masked >= 15

    def test_crashes_dominated_by_segfaults(self, gpr_campaign):
        assert gpr_campaign.counts.segv_fraction_of_crashes() > 0.5

    def test_histograms_complete(self, gpr_campaign):
        assert gpr_campaign.register_histogram.sum() == 60
        assert gpr_campaign.bit_histogram.sum() == 60


class TestFPRCampaign:
    def test_fpr_overwhelmingly_masked(self, campaign_setup):
        workload, golden = campaign_setup
        config = CampaignConfig(n_injections=40, kind=RegKind.FPR, seed=23)
        campaign = run_campaign(workload, golden.output, golden.total_cycles, config)
        # Paper Section VI-A: FPR injections masked >= 99.7%; at this
        # tiny sample we require a conservative supermajority.
        assert campaign.counts.rate(Outcome.MASKED) >= 0.9
        assert campaign.counts.crash == 0


class TestReproducibility:
    def test_identical_campaigns(self, campaign_setup):
        workload, golden = campaign_setup
        config = CampaignConfig(n_injections=25, kind=RegKind.GPR, seed=5)
        first = run_campaign(workload, golden.output, golden.total_cycles, config)
        second = run_campaign(workload, golden.output, golden.total_cycles, config)
        assert [r.outcome for r in first.results] == [r.outcome for r in second.results]

    def test_different_seeds_differ(self, campaign_setup):
        workload, golden = campaign_setup
        base = CampaignConfig(n_injections=25, kind=RegKind.GPR, seed=5)
        other = CampaignConfig(n_injections=25, kind=RegKind.GPR, seed=6)
        first = run_campaign(workload, golden.output, golden.total_cycles, base)
        second = run_campaign(workload, golden.output, golden.total_cycles, other)
        assert [r.plan for r in first.results] != [r.plan for r in second.results]


class TestSDCQualityPath:
    def test_sdc_outputs_assessable(self, campaign_setup):
        from repro.quality import compare_outputs

        workload, golden = campaign_setup
        config = CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=31)
        campaign = run_campaign(workload, golden.output, golden.total_cycles, config)
        for result in campaign.sdc_results:
            quality = compare_outputs(golden.output, result.output)
            assert quality.relative_l2_norm >= 0.0
