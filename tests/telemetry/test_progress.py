"""Heartbeat: rate-limited progress lines with rate, ETA and cache stats."""

from __future__ import annotations

import io

from repro.telemetry.progress import Heartbeat, _format_eta


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _heartbeat(total: int, interval_s: float = 2.0):
    clock = FakeClock()
    stream = io.StringIO()
    beat = Heartbeat(total, label="campaign gpr", interval_s=interval_s,
                     stream=stream, clock=clock)
    return beat, clock, stream


class TestRateLimiting:
    def test_at_most_one_line_per_interval(self):
        beat, clock, stream = _heartbeat(total=100)
        clock.advance(0.1)
        beat.update(1)  # first due immediately
        for done in range(2, 50):
            clock.advance(0.01)
            beat.update(done)  # all inside the 2 s window: suppressed
        assert beat.lines_emitted == 1
        clock.advance(2.0)
        beat.update(50)
        assert beat.lines_emitted == 2
        assert len(stream.getvalue().splitlines()) == 2

    def test_final_update_always_prints(self):
        beat, clock, stream = _heartbeat(total=10)
        clock.advance(0.1)
        beat.update(3)
        clock.advance(0.01)
        beat.update(10)  # final: prints despite the interval
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "10/10" in lines[-1]
        assert "ETA 0s" in lines[-1]


class TestLineFormat:
    def test_line_shows_rate_and_eta(self):
        beat, clock, stream = _heartbeat(total=40)
        clock.advance(2.0)
        beat.update(10)  # 5 inj/s, 30 left -> ETA 6 s
        line = stream.getvalue().strip()
        assert line.startswith("[campaign gpr] 10/40 injections")
        assert "5.0 inj/s" in line
        assert "ETA 6s" in line

    def test_cache_suffix_reports_golden_hits(self):
        from repro.summarize.golden import clear_golden_cache, golden_cache_stats

        clear_golden_cache()
        stats = golden_cache_stats()
        stats.computes = 1
        stats.hits = 7
        try:
            beat, clock, stream = _heartbeat(total=10)
            clock.advance(1.0)
            beat.update(5)
            assert "golden-cache 7/8 hits" in stream.getvalue()
        finally:
            clear_golden_cache()

    def test_no_cache_suffix_without_lookups(self):
        from repro.summarize.golden import clear_golden_cache

        clear_golden_cache()
        beat, clock, stream = _heartbeat(total=10)
        clock.advance(1.0)
        beat.update(5)
        assert "golden-cache" not in stream.getvalue()


class TestEtaFormatting:
    def test_eta_units(self):
        assert _format_eta(42.4) == "42s"
        assert _format_eta(90) == "1.5m"
        assert _format_eta(2.5 * 3600) == "2.5h"


class TestIntervalResolution:
    def test_explicit_value_wins(self, monkeypatch):
        from repro.telemetry.progress import (
            HEARTBEAT_INTERVAL_ENV,
            resolve_heartbeat_interval,
        )

        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "9.0")
        assert resolve_heartbeat_interval(0.5) == 0.5

    def test_env_var_beats_default(self, monkeypatch):
        from repro.telemetry.progress import (
            DEFAULT_HEARTBEAT_INTERVAL,
            HEARTBEAT_INTERVAL_ENV,
            resolve_heartbeat_interval,
        )

        monkeypatch.delenv(HEARTBEAT_INTERVAL_ENV, raising=False)
        assert resolve_heartbeat_interval() == DEFAULT_HEARTBEAT_INTERVAL
        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "0.25")
        assert resolve_heartbeat_interval() == 0.25
        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "")
        assert resolve_heartbeat_interval() == DEFAULT_HEARTBEAT_INTERVAL

    def test_bad_env_value_names_its_source(self, monkeypatch):
        import pytest

        from repro.telemetry.progress import (
            HEARTBEAT_INTERVAL_ENV,
            resolve_heartbeat_interval,
        )

        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "soon")
        with pytest.raises(ValueError, match=HEARTBEAT_INTERVAL_ENV):
            resolve_heartbeat_interval()

    def test_bad_flag_value_names_the_flag(self):
        import pytest

        from repro.telemetry.progress import resolve_heartbeat_interval

        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="heartbeat interval"):
                resolve_heartbeat_interval(bad)

    def test_constructor_validates_interval(self):
        import pytest

        with pytest.raises(ValueError, match="heartbeat interval"):
            Heartbeat(10, interval_s=0.0)


class TestBusSubscriber:
    def _subscribed(self):
        from repro.observe.events import EventBus

        bus = EventBus()
        beat, clock, stream = _heartbeat(total=0)
        bus.subscribe(beat)
        return bus, beat, clock, stream

    def test_heartbeat_folds_campaign_events(self):
        bus, beat, clock, stream = self._subscribed()
        bus.publish("campaign_start", {"mode": "uniform", "kind": "gpr", "total": 10})
        clock.advance(1.0)
        bus.publish("chunk_done", {"done": 5, "outcomes": {"mask": 5}})
        bus.publish("note", {"note": "resumed from journal"})
        bus.publish("chunk_done", {"done": 10, "outcomes": {"mask": 5}})
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[campaign gpr] 5/10 injections")
        assert lines[1] == "[campaign gpr] resumed from journal"
        assert lines[2].startswith("[campaign gpr] 10/10 injections")
        assert lines[2].endswith("| resumed from journal")

    def test_stratified_campaign_prints_notes_only(self):
        bus, beat, clock, stream = self._subscribed()
        bus.publish("campaign_start", {"mode": "stratified", "kind": "gpr", "total": None})
        bus.publish("chunk_done", {"done": 8, "outcomes": {"mask": 8}})
        bus.publish("note", {"note": "round 1: 8 draws"})
        assert stream.getvalue().splitlines() == [
            "[campaign gpr (stratified)] round 1: 8 draws"
        ]

    def test_quiet_or_untraced_campaign_attaches_no_heartbeat(self):
        from repro import telemetry
        from repro.faultinject.campaign import CampaignConfig
        from repro.faultinject.registers import RegKind

        config = CampaignConfig(n_injections=1, kind=RegKind.GPR)
        telemetry.disable()
        with telemetry.campaign_heartbeat(config) as beat:
            assert beat is None
        tracer = telemetry.enable()
        try:
            config.quiet = True
            with telemetry.campaign_heartbeat(config) as beat:
                assert beat is None
            config.quiet = False
            with telemetry.campaign_heartbeat(config) as beat:
                assert beat is not None
            assert telemetry.get_tracer() is tracer
        finally:
            telemetry.disable()
