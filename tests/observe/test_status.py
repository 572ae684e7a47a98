"""Unit tests for the crash-safe status snapshot writer."""

from __future__ import annotations

import json

import pytest

from repro.observe.events import EventBus
from repro.observe.status import (
    STATUS_SCHEMA_VERSION,
    StatusWriter,
    read_status,
    render_status,
    validate_status,
    write_status,
)


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _wired(path=None, clock=None):
    bus = EventBus()
    writer = StatusWriter(path, clock=clock or FakeClock())
    bus.subscribe(writer)
    return bus, writer


class TestEventFolding:
    def test_campaign_start_sets_running_and_total(self):
        bus, writer = _wired()
        bus.publish(
            "campaign_start",
            {"mode": "uniform", "kind": "gpr", "total": 40, "workers": 2},
        )
        assert writer.state == "running"
        assert writer.total == 40
        assert writer.campaign["mode"] == "uniform"

    def test_chunk_events_accumulate_incrementally(self):
        bus, writer = _wired()
        bus.publish("campaign_start", {"total": 8})
        bus.publish("chunk_done", {"done": 4, "outcomes": {"mask": 3, "sdc": 1}})
        bus.publish("chunk_done", {"done": 8, "outcomes": {"mask": 2, "crash": 2}})
        assert writer.done == 8
        assert writer.outcomes == {"mask": 5, "sdc": 1, "crash": 2, "hang": 0}

    def test_round_done_totals_are_authoritative(self):
        # round_done carries the engine's cumulative tally, which both
        # reconstructs journal-replayed state (no chunk events fire
        # during replay) and prevents double counting on top of the
        # chunk_done increments emitted inside the round.
        bus, writer = _wired()
        bus.publish("campaign_start", {"mode": "stratified", "total": None})
        bus.publish("chunk_done", {"done": 8, "outcomes": {"mask": 8}})
        bus.publish(
            "round_done",
            {
                "round": 0,
                "done": 8,
                "outcomes_total": {"mask": 7, "sdc": 1},
                "cells_total": 8,
                "cells_converged": 2,
                "max_ci_width": 0.41,
                "cell_ci_widths": [0.41, 0.2],
            },
        )
        assert writer.outcomes == {"mask": 7, "sdc": 1, "crash": 0, "hang": 0}
        assert writer.stratified["cells_total"] == 8
        assert writer.stratified["max_ci_width"] == 0.41

    def test_counters_and_resume(self):
        bus, writer = _wired()
        bus.publish("retry", {"attempt": 1})
        bus.publish("degrade", {"to_workers": 1})
        bus.publish("watchdog_hang", {"index": 3, "count": 2})
        bus.publish("golden_tail", {"frame": 5})
        bus.publish("journal_checkpoint", {"unit": "chunk", "index": 0})
        bus.publish("note", {"note": "probe on"})
        bus.publish("journal_resume", {"replayed": 3, "injections": 24})
        assert writer.counters == {
            "retries": 1,
            "degrades": 1,
            "watchdog_hangs": 2,
            "golden_tails": 1,
            "journal_checkpoints": 1,
            "notes": 1,
        }
        assert writer.resume == {"replayed": 3, "injections": 24}

    def test_campaign_finish_is_authoritative(self):
        bus, writer = _wired()
        bus.publish("campaign_start", {"total": 40})
        bus.publish("chunk_done", {"done": 16, "outcomes": {"mask": 16}})
        bus.publish(
            "campaign_finish",
            {"total": 40, "outcomes": {"mask": 30, "sdc": 6, "crash": 3, "hang": 1}},
        )
        assert writer.state == "finished"
        assert writer.done == 40
        assert writer.outcomes == {"mask": 30, "sdc": 6, "crash": 3, "hang": 1}

    def test_interrupt_marks_state(self):
        bus, writer = _wired()
        bus.publish("campaign_start", {"total": 40})
        bus.publish("interrupt", {"error": "CampaignInterrupted"})
        assert writer.state == "interrupted"


class TestSnapshot:
    def test_progress_rate_and_eta(self):
        clock = FakeClock()
        bus, writer = _wired(clock=clock)
        bus.publish("campaign_start", {"total": 40})
        clock.advance(10.0)
        bus.publish("chunk_done", {"done": 20, "outcomes": {"mask": 20}})
        snap = writer.snapshot()
        assert snap["progress"] == {"done": 20, "total": 40, "fraction": 0.5}
        assert snap["rate_per_s"] == 2.0
        assert snap["eta_s"] == 10.0

    def test_rates_carry_wilson_cis(self):
        bus, writer = _wired()
        bus.publish("campaign_start", {"total": 10})
        bus.publish("chunk_done", {"done": 10, "outcomes": {"mask": 8, "sdc": 2}})
        snap = writer.snapshot()
        sdc = snap["outcomes"]["rates"]["sdc"]
        assert sdc["count"] == 2
        assert sdc["rate"] == 0.2
        assert 0.0 <= sdc["ci_low"] <= 0.2 <= sdc["ci_high"] <= 1.0

    def test_snapshot_always_validates(self):
        clock = FakeClock()
        bus, writer = _wired(clock=clock)
        assert validate_status(writer.snapshot()) == []
        bus.publish("campaign_start", {"total": 4})
        assert validate_status(writer.snapshot()) == []
        bus.publish("chunk_done", {"done": 1, "outcomes": {"sdc": 1}})
        assert validate_status(writer.snapshot()) == []
        bus.publish("campaign_finish", {"total": 4, "outcomes": {"mask": 3, "sdc": 1}})
        assert validate_status(writer.snapshot()) == []


class TestValidate:
    def _valid(self):
        _, writer = _wired()
        return writer.snapshot()

    def test_rejects_wrong_schema(self):
        payload = self._valid()
        payload["schema"] = STATUS_SCHEMA_VERSION + 1
        assert any("schema" in p for p in validate_status(payload))

    def test_rejects_unknown_state(self):
        payload = self._valid()
        payload["state"] = "zombie"
        assert any("state" in p for p in validate_status(payload))

    def test_rejects_done_beyond_total(self):
        payload = self._valid()
        payload["progress"] = {"done": 5, "total": 4, "fraction": 1.25}
        assert any("exceeds total" in p for p in validate_status(payload))

    def test_rejects_disordered_ci(self):
        payload = self._valid()
        payload["outcomes"]["rates"]["sdc"] = {
            "count": 1,
            "rate": 0.5,
            "ci_low": 0.9,
            "ci_high": 0.1,
        }
        assert any("not ordered" in p for p in validate_status(payload))

    def test_rejects_negative_counter(self):
        payload = self._valid()
        payload["counters"]["retries"] = -1
        assert any("counters.retries" in p for p in validate_status(payload))

    def test_rejects_non_object(self):
        assert validate_status([]) == ["payload is not a JSON object"]


class TestPersistence:
    def test_written_file_round_trips(self, tmp_path):
        path = tmp_path / "status.json"
        bus, writer = _wired(path=path)
        bus.publish("campaign_start", {"total": 4})
        bus.publish("campaign_finish", {"total": 4, "outcomes": {"mask": 4}})
        payload = read_status(path)
        assert validate_status(payload) == []
        assert payload["state"] == "finished"
        assert writer.writes == 2

    def test_write_replaces_atomically_leaving_no_tmp(self, tmp_path):
        path = tmp_path / "status.json"
        write_status(path, {"schema": 1})
        write_status(path, {"schema": 1, "state": "running"})
        assert json.loads(path.read_text())["state"] == "running"
        assert not (tmp_path / "status.json.tmp").exists()

    def test_mark_forces_terminal_state(self, tmp_path):
        path = tmp_path / "status.json"
        _, writer = _wired(path=path)
        writer.mark("finished")
        assert read_status(path)["state"] == "finished"

    def test_pathless_writer_never_touches_disk(self):
        _, writer = _wired(path=None)
        writer.write()
        assert writer.writes == 0


class TestRender:
    def test_render_includes_bar_rates_and_counters(self):
        bus, writer = _wired()
        bus.publish("campaign_start", {"mode": "uniform", "kind": "gpr", "total": 10})
        bus.publish("chunk_done", {"done": 5, "outcomes": {"mask": 4, "sdc": 1}})
        bus.publish("retry", {"attempt": 1})
        text = render_status(writer.snapshot())
        assert "[running] uniform gpr" in text
        assert "progress: 5/10" in text
        assert "#" in text and "50.0%" in text
        assert "sdc" in text
        assert "retries=1" in text

    def test_render_handles_unknown_total(self):
        bus, writer = _wired()
        bus.publish("campaign_start", {"mode": "stratified", "total": None})
        text = render_status(writer.snapshot())
        assert "progress: 0/?" in text
