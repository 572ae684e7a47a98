"""Tracer behaviour: null fast path, nesting, cycle merge, event cap."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.runtime.context import ExecutionContext
from repro.telemetry.tracing import Tracer, _NULL_SPAN, activate_from_env


class TestDisabledFastPath:
    def test_span_returns_shared_null_guard(self):
        assert not telemetry.enabled()
        guard_a = telemetry.span("anything")
        guard_b = telemetry.span("else", ctx=ExecutionContext())
        assert guard_a is _NULL_SPAN
        assert guard_b is _NULL_SPAN
        with guard_a:
            pass  # must be usable and side-effect free

    def test_counter_and_gauge_are_noops(self):
        telemetry.counter_inc("x")
        telemetry.gauge_set("y", 1.0)
        tracer = telemetry.enable()
        assert tracer.registry.counter("x") == 0
        assert tracer.registry.gauge("y") is None

    def test_traced_function_runs_plain_when_disabled(self):
        @telemetry.traced("unit.fn")
        def double(value):
            return value * 2

        assert double(21) == 42


class TestEnableDisable:
    def test_enable_is_idempotent(self):
        first = telemetry.enable()
        second = telemetry.enable()
        assert first is second
        assert telemetry.get_tracer() is first

    def test_disable_returns_active_tracer(self):
        tracer = telemetry.enable()
        assert telemetry.disable() is tracer
        assert not telemetry.enabled()
        assert telemetry.disable() is None


class TestSpans:
    def test_span_records_event_and_timer(self):
        tracer = telemetry.enable()
        with telemetry.span("unit.stage"):
            pass
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event["name"] == "unit.stage"
        assert event["parent"] is None
        assert event["depth"] == 0
        assert event["wall_s"] >= 0.0
        assert event["error"] is None
        count, total, _ = tracer.registry.timer("span.unit.stage")
        assert count == 1
        assert total == event["wall_s"]

    def test_nested_spans_track_parent_and_depth(self):
        tracer = telemetry.enable()
        with telemetry.span("outer"):
            assert tracer.current_span == "outer"
            with telemetry.span("inner"):
                assert tracer.current_span == "inner"
        assert tracer.current_span is None
        inner, outer = tracer.events  # inner closes first
        assert inner["name"] == "inner"
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["parent"] is None
        assert outer["depth"] == 0
        assert inner["seq"] < outer["seq"]

    def test_span_captures_context_cycle_delta(self):
        tracer = telemetry.enable()
        ctx = ExecutionContext()
        ctx.tick(100)
        with telemetry.span("metered", ctx=ctx):
            ctx.tick(1234)
        event = tracer.events[0]
        assert event["cycles"] == 1234
        assert tracer.registry.counter("cycles.metered") == 1234

    def test_span_without_context_records_zero_cycles(self):
        tracer = telemetry.enable()
        with telemetry.span("dry"):
            pass
        assert tracer.events[0]["cycles"] == 0
        assert tracer.registry.counter("cycles.dry") == 0

    def test_error_spans_record_and_reraise(self):
        tracer = telemetry.enable()
        with pytest.raises(KeyError):
            with telemetry.span("failing"):
                raise KeyError("boom")
        assert tracer.events[0]["error"] == "KeyError"
        assert tracer.current_span is None  # stack unwound


class TestEventCap:
    def test_overflow_counts_dropped_events(self):
        tracer = Tracer(max_events=2)
        for index in range(5):
            with tracer.span(f"stage{index}"):
                pass
        assert len(tracer.events) == 2
        assert tracer.registry.counter("trace.dropped_events") == 3
        # Timers still aggregate past the cap — only raw events drop.
        assert tracer.registry.timer("span.stage4") is not None


class TestTracedDecorator:
    def test_traced_uses_given_name(self):
        tracer = telemetry.enable()

        @telemetry.traced("unit.work")
        def work():
            return "done"

        assert work() == "done"
        assert tracer.events[0]["name"] == "unit.work"

    def test_traced_defaults_to_qualname(self):
        tracer = telemetry.enable()

        @telemetry.traced()
        def helper():
            return 1

        helper()
        assert "helper" in tracer.events[0]["name"]


class TestChunkBuffer:
    def test_chunk_bus_isolates_and_restores(self):
        from repro.observe import events
        from repro.telemetry.metrics import run_buffered

        parent = telemetry.enable()
        bus = events.current()
        telemetry.counter_inc("parent.metric")

        def chunk():
            assert events.current() is not bus
            telemetry.counter_inc("chunk.metric")
            events.emit("golden_tail", frame=3)
            with telemetry.span("chunk.stage"):
                pass
            return "done"

        result, chunk_events = run_buffered(chunk)
        assert result == "done"
        assert events.current() is bus
        assert parent.registry.counter("chunk.metric") == 0
        kinds = [kind for kind, _ in chunk_events]
        assert kinds == ["golden_tail", "metrics"]
        snapshot = chunk_events[-1][1]
        assert snapshot["counters"] == {"chunk.metric": 1}
        assert "parent.metric" not in snapshot["counters"]
        assert snapshot["timers"]["span.chunk.stage"]["count"] == 1
        for kind, payload in chunk_events:
            bus.publish(kind, payload)
        assert parent.registry.counter("chunk.metric") == 1
        assert parent.registry.counter("campaign.fanout.golden_tail") == 1

    def test_chunk_bus_restored_when_chunk_raises(self):
        from repro.observe import events
        from repro.telemetry.metrics import run_buffered

        def chunk():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            run_buffered(chunk)
        assert events.current() is None
        assert not telemetry.enabled()


class TestEnvActivation:
    @pytest.mark.parametrize("raw", ["", "0", "false", "no", "off"])
    def test_falsy_values_leave_tracing_off(self, monkeypatch, raw):
        monkeypatch.setenv(telemetry.TRACE_ENV, raw)
        assert activate_from_env() is None
        assert not telemetry.enabled()

    def test_truthy_value_enables(self, monkeypatch):
        monkeypatch.setenv(telemetry.TRACE_ENV, "1")
        tracer = activate_from_env()
        assert tracer is not None
        assert telemetry.enabled()

    def test_unset_leaves_tracing_off(self, monkeypatch):
        monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
        assert activate_from_env() is None
        assert not telemetry.enabled()
