"""Acceptance: divergence probes never change campaign results.

The forensics determinism contract: a probed campaign produces
bit-identical outcome counts, running-rate series, histograms and SDC
outputs to an unprobed one, at ``workers=1`` and ``workers>1``, and a
probed journaled campaign survives interrupt + resume with its
divergence records intact.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.faultinject.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.journal import ABORT_AFTER_ENV, CampaignInterrupted
from repro.faultinject.registers import RegKind

from tests.faultinject.test_parallel import (
    ToyWorkloadSpec,
    _campaigns_equal,
    toy_workload,
)


def _toy_campaign(workers: int, probe: bool, **overrides) -> CampaignResult:
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    base = dict(n_injections=60, kind=RegKind.GPR, seed=9, workers=workers, probe=probe)
    base.update(overrides)
    return run_campaign(
        toy_workload,
        golden,
        cycles,
        CampaignConfig(**base),
        spec=spec if workers > 1 else None,
    )


def _divergences_equal(first: CampaignResult, second: CampaignResult) -> None:
    assert len(first.results) == len(second.results)
    for a, b in zip(first.results, second.results):
        assert a.divergence == b.divergence


class TestToyProbeEquivalence:
    def test_probed_serial_matches_unprobed(self):
        _campaigns_equal(_toy_campaign(1, probe=False), _toy_campaign(1, probe=True))

    def test_probed_parallel_matches_unprobed_serial(self):
        _campaigns_equal(_toy_campaign(1, probe=False), _toy_campaign(3, probe=True))

    def test_probed_parallel_matches_probed_serial(self):
        serial = _toy_campaign(1, probe=True)
        parallel = _toy_campaign(3, probe=True)
        _campaigns_equal(serial, parallel)
        # Divergence records merge in chunk order: same per-injection
        # records regardless of worker count.
        _divergences_equal(serial, parallel)

    def test_divergence_only_on_probed_runs(self):
        assert all(r.divergence is None for r in _toy_campaign(1, probe=False).results)
        assert all(r.divergence is not None for r in _toy_campaign(1, probe=True).results)


class TestVSProbeEquivalence:
    @pytest.fixture(scope="class")
    def vs_setup(self):
        from repro.analysis.experiments import TINY, input_stream, vs_workload
        from repro.faultinject.parallel import VSWorkloadSpec
        from repro.summarize.approximations import config_for
        from repro.summarize.golden import golden_run

        stream = input_stream("input1", TINY)
        config = config_for("VS")
        golden = golden_run(stream, config)
        spec = VSWorkloadSpec.for_stream(stream, config)
        assert spec is not None
        return vs_workload(stream, config), golden, spec

    def _run(self, vs_setup, workers: int, probe: bool) -> CampaignResult:
        workload, golden, spec = vs_setup
        return run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            CampaignConfig(
                n_injections=6,
                kind=RegKind.GPR,
                seed=21,
                workers=workers,
                probe=probe,
                keep_sdc_outputs=True,
            ),
            spec=spec,
        )

    def test_vs_campaign_unchanged_by_probing(self, vs_setup):
        unprobed = self._run(vs_setup, workers=1, probe=False)
        probed = self._run(vs_setup, workers=1, probe=True)
        _campaigns_equal(unprobed, probed)
        _campaigns_equal(unprobed, self._run(vs_setup, workers=2, probe=True))

    def test_vs_divergence_attributes_stages(self, vs_setup):
        probed = self._run(vs_setup, workers=1, probe=True)
        # Every probed run carries a record; completed runs reached the
        # stitch, and any SDC must have diverged somewhere upstream.
        assert all(r.divergence is not None for r in probed.results)
        for result in probed.results:
            if result.outcome.value == "mask":
                assert result.divergence.last_stage == "stitch"
            if result.outcome.value == "sdc":
                assert result.divergence.first_divergence is not None
                assert result.divergence.diverged("stitch")


class TestJournaledProbeResume:
    def _config(self) -> CampaignConfig:
        return CampaignConfig(
            n_injections=40, kind=RegKind.GPR, seed=9, workers=1, probe=True
        )

    def test_interrupt_resume_preserves_divergence(self, tmp_path):
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        reference = run_campaign(toy_workload, golden, cycles, self._config())
        journal = tmp_path / "probed.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    toy_workload, golden, cycles, self._config(), journal_path=journal
                )
        resumed = run_campaign(
            toy_workload, golden, cycles, self._config(), journal_path=journal, resume=True
        )
        _campaigns_equal(reference, resumed)
        _divergences_equal(reference, resumed)
        assert all(r.divergence is not None for r in resumed.results)

    def test_probe_flag_in_fingerprint_refuses_mixed_resume(self, tmp_path):
        spec = ToyWorkloadSpec()
        state = spec.build()
        golden, cycles = state.golden_output, state.golden_cycles
        journal = tmp_path / "probed.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    toy_workload, golden, cycles, self._config(), journal_path=journal
                )
        unprobed = CampaignConfig(n_injections=40, kind=RegKind.GPR, seed=9, workers=1)
        with pytest.raises(ValueError, match="fingerprint|config"):
            run_campaign(
                toy_workload, golden, cycles, unprobed, journal_path=journal, resume=True
            )
