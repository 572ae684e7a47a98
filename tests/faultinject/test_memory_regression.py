"""Memory-regression guard: ``keep_sdc_outputs=False`` retains no payloads.

Large campaigns switch SDC-output retention off to bound memory; the
contract is that this changes *only* the stored payloads — every count,
rate series, histogram and fired tally must match a retention-on run
bit for bit, and no result object may keep a corrupted-output array
alive anywhere (serial or parallel path).
"""

from __future__ import annotations

import numpy as np

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.registers import RegKind

from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload


def _run(keep: bool, workers: int = 1):
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    return run_campaign(
        toy_workload,
        golden,
        cycles,
        CampaignConfig(
            n_injections=80,
            kind=RegKind.GPR,
            seed=0,
            keep_sdc_outputs=keep,
            workers=workers,
        ),
        spec=spec if workers > 1 else None,
    )


class TestKeepSdcOutputsOff:
    def test_no_payload_survives_serial(self):
        campaign = _run(keep=False)
        assert all(r.output is None for r in campaign.results)
        assert campaign.sdc_results, "campaign must still classify SDC runs"
        assert all(r.output is None for r in campaign.sdc_results)

    def test_no_payload_survives_parallel(self):
        campaign = _run(keep=False, workers=3)
        assert all(r.output is None for r in campaign.results)

    def test_statistics_identical_to_retention_on(self):
        kept = _run(keep=True)
        dropped = _run(keep=False)
        assert dropped.counts == kept.counts
        assert dropped.fired == kept.fired
        assert dropped.fired_counts() == kept.fired_counts()
        assert dropped.running == kept.running
        assert np.array_equal(dropped.register_histogram, kept.register_histogram)
        assert np.array_equal(dropped.bit_histogram, kept.bit_histogram)
        # Retention-on keeps real payloads — proves the workload did SDC.
        assert any(r.output is not None for r in kept.sdc_results)
        # Same runs are SDC in both; only the payloads differ.
        assert [r.plan for r in dropped.sdc_results] == [r.plan for r in kept.sdc_results]

    def test_fired_counts_match_across_retention(self):
        kept = _run(keep=True, workers=2)
        dropped = _run(keep=False, workers=2)
        assert dropped.fired_counts() == kept.fired_counts()
        assert dropped.fired_counts().total == sum(
            1 for r in kept.results if r.record.fired and r.record.in_study
        )
