"""The observer-effect contract, end to end.

Observation must never change a campaign: a run wrapped in
``observe_campaign`` — status snapshots, flight recorder, HTTP server —
is bit-identical to an unobserved run at any worker count, in both
sampling modes, and across journal interrupt/resume.  These tests pin
that contract and the teardown behaviour around it.
"""

from __future__ import annotations

import json
import os
from unittest import mock

import pytest

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.journal import ABORT_AFTER_ENV, CampaignInterrupted
from repro.faultinject.registers import RegKind
from repro.observe import events
from repro.observe.events import EVENT_KINDS
from repro.observe.recorder import read_dump
from repro.observe.session import (
    STATUS_ENV,
    default_flight_path,
    observe_campaign,
    resolve_status_path,
)
from repro.observe.status import read_status, validate_status
from tests.faultinject.test_parallel import (
    ToyWorkloadSpec,
    _campaigns_equal,
    toy_workload,
)


def _config(**overrides) -> CampaignConfig:
    base = dict(n_injections=40, kind=RegKind.GPR, seed=9, workers=1)
    base.update(overrides)
    return CampaignConfig(**base)


def _stratified_config(**overrides) -> CampaignConfig:
    base = dict(
        n_injections=1,
        kind=RegKind.GPR,
        seed=9,
        workers=1,
        sampling="stratified",
        ci_width=0.3,
        round_size=8,
        strata=(2, 2, 2),
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture()
def toy():
    spec = ToyWorkloadSpec()
    _, golden, cycles = spec.build()
    return spec, golden, cycles


class TestBitIdentical:
    def test_serial_campaign_unchanged_by_observation(self, toy, tmp_path):
        spec, golden, cycles = toy
        unobserved = run_campaign(toy_workload, golden, cycles, _config())
        with observe_campaign(tmp_path / "status.json"):
            observed = run_campaign(toy_workload, golden, cycles, _config())
        _campaigns_equal(unobserved, observed)

    def test_parallel_campaign_unchanged_by_observation(self, toy, tmp_path):
        spec, golden, cycles = toy
        config = _config(workers=4)
        unobserved = run_campaign(toy_workload, golden, cycles, config, spec=spec)
        with observe_campaign(tmp_path / "status.json"):
            observed = run_campaign(toy_workload, golden, cycles, config, spec=spec)
        _campaigns_equal(unobserved, observed)

    def test_stratified_campaign_unchanged_by_observation(self, toy, tmp_path):
        spec, golden, cycles = toy
        config = _stratified_config()
        unobserved = run_campaign(toy_workload, golden, cycles, config)
        with observe_campaign(tmp_path / "status.json"):
            observed = run_campaign(toy_workload, golden, cycles, config)
        _campaigns_equal(unobserved, observed)
        assert observed.sampling.to_dict() == unobserved.sampling.to_dict()

    def test_observed_interrupt_resume_matches_unobserved_reference(
        self, toy, tmp_path
    ):
        spec, golden, cycles = toy
        reference = run_campaign(toy_workload, golden, cycles, _config())
        journal = tmp_path / "j.jsonl"
        status = tmp_path / "status.json"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted):
                with observe_campaign(status):
                    run_campaign(
                        toy_workload, golden, cycles, _config(), journal_path=journal
                    )
        assert read_status(status)["state"] == "interrupted"
        with observe_campaign(status):
            resumed = run_campaign(
                toy_workload, golden, cycles, _config(), journal_path=journal, resume=True
            )
        _campaigns_equal(reference, resumed)
        payload = read_status(status)
        assert payload["state"] == "finished"
        assert payload["resume"]["replayed"] == 1

    def test_broken_subscriber_cannot_perturb_results(self, toy):
        spec, golden, cycles = toy
        unobserved = run_campaign(toy_workload, golden, cycles, _config())
        bus = events.install()
        try:
            def explode(event):
                raise RuntimeError("observer bug")

            bus.subscribe(explode)
            observed = run_campaign(toy_workload, golden, cycles, _config())
        finally:
            events.uninstall()
        _campaigns_equal(unobserved, observed)
        assert bus.subscriber_errors > 0


class TestEmittedEvents:
    def _collect(self, runner) -> list:
        bus = events.install()
        seen = []
        bus.subscribe(seen.append)
        try:
            runner()
        finally:
            events.uninstall()
        return seen

    def test_serial_kinds_stay_inside_the_vocabulary(self, toy):
        spec, golden, cycles = toy
        seen = self._collect(
            lambda: run_campaign(toy_workload, golden, cycles, _config())
        )
        kinds = {event.kind for event in seen}
        assert kinds <= EVENT_KINDS
        assert "campaign_start" in kinds
        assert "campaign_finish" in kinds
        # workers=1 without a journal runs the same chunk loop as any
        # other campaign, so progress arrives as chunk events too.
        assert "chunk_done" in kinds

    def test_parallel_emits_chunk_and_checkpoint_events(self, toy, tmp_path):
        spec, golden, cycles = toy
        seen = self._collect(
            lambda: run_campaign(
                toy_workload,
                golden,
                cycles,
                _config(workers=2),
                spec=spec,
                journal_path=tmp_path / "j.jsonl",
            )
        )
        kinds = {event.kind for event in seen}
        assert kinds <= EVENT_KINDS
        assert "chunk_done" in kinds
        assert "journal_checkpoint" in kinds

    def test_stratified_emits_round_and_convergence_events(self, toy):
        spec, golden, cycles = toy
        seen = self._collect(
            lambda: run_campaign(toy_workload, golden, cycles, _stratified_config())
        )
        kinds = {event.kind for event in seen}
        assert kinds <= EVENT_KINDS
        assert "round_done" in kinds
        assert "stratum_converged" in kinds
        finish = [e for e in seen if e.kind == "campaign_finish"][-1]
        rounds = [e for e in seen if e.kind == "round_done"]
        # The last round's cumulative tally must agree with the final one.
        assert sum(rounds[-1].payload["outcomes_total"].values()) == finish.payload["total"]

    def test_seq_is_gapless_and_ordered(self, toy):
        spec, golden, cycles = toy
        seen = self._collect(
            lambda: run_campaign(toy_workload, golden, cycles, _config())
        )
        assert [event.seq for event in seen] == list(range(len(seen)))


class TestObserveSession:
    def test_status_file_reaches_finished_and_validates(self, toy, tmp_path):
        spec, golden, cycles = toy
        status = tmp_path / "status.json"
        with observe_campaign(status):
            campaign = run_campaign(toy_workload, golden, cycles, _config())
        payload = read_status(status)
        assert validate_status(payload) == []
        assert payload["state"] == "finished"
        assert payload["progress"]["done"] == 40
        assert payload["outcomes"]["total"] == 40
        counts = campaign.counts
        assert payload["outcomes"]["rates"]["mask"]["count"] == counts.masked
        assert payload["outcomes"]["rates"]["sdc"]["count"] == counts.sdc

    def test_interrupt_dumps_the_flight_recorder(self, toy, tmp_path):
        spec, golden, cycles = toy
        status = tmp_path / "status.json"
        journal = tmp_path / "j.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted):
                with observe_campaign(status):
                    run_campaign(
                        toy_workload, golden, cycles, _config(), journal_path=journal
                    )
        flight = default_flight_path(status)
        assert flight.exists()
        header, dumped = read_dump(flight)
        assert header["triggered"] is True
        assert "interrupt" in header["trigger_kinds"]
        assert dumped[-1]["kind"] == "interrupt"

    def test_watchdog_hang_triggers_a_dump_on_clean_exit(self, toy, tmp_path):
        # A hang is an anomaly worth a post-mortem even when the
        # campaign itself completes: the recorder arms on the
        # watchdog_hang event and the session dumps at teardown.
        spec, golden, cycles = toy
        status = tmp_path / "status.json"
        with observe_campaign(status):
            run_campaign(toy_workload, golden, cycles, _config())
            events.current().publish("watchdog_hang", {"index": 0, "count": 1})
        flight = default_flight_path(status)
        assert flight.exists()
        header, _ = read_dump(flight)
        assert header["trigger_kinds"] == ["watchdog_hang"]

    def test_clean_run_without_anomalies_dumps_nothing(self, toy, tmp_path):
        spec, golden, cycles = toy
        status = tmp_path / "status.json"
        with observe_campaign(status):
            run_campaign(toy_workload, golden, cycles, _config())
        assert not default_flight_path(status).exists()

    def test_previous_bus_restored_even_on_error(self, tmp_path):
        outer = events.install()
        try:
            with pytest.raises(RuntimeError):
                with observe_campaign(tmp_path / "status.json"):
                    assert events.current() is not outer
                    raise RuntimeError("boom")
            assert events.current() is outer
        finally:
            events.uninstall()

    def test_resolve_status_path_flag_beats_env(self):
        with mock.patch.dict(os.environ, {STATUS_ENV: "/tmp/env.json"}):
            assert resolve_status_path("/tmp/flag.json") == "/tmp/flag.json"
            assert resolve_status_path(None) == "/tmp/env.json"
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop(STATUS_ENV, None)
            assert resolve_status_path(None) is None

    def test_default_flight_path_is_a_sibling(self, tmp_path):
        status = tmp_path / "run" / "status.json"
        assert default_flight_path(status) == tmp_path / "run" / "status.flightrec.jsonl"
        assert default_flight_path(None) is None
