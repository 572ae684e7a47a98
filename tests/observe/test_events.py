"""Unit tests for the campaign event bus."""

from __future__ import annotations

import pytest

from repro.observe import events
from repro.observe.events import EVENT_KINDS, EVENT_SCHEMA_VERSION, CampaignEvent, EventBus


class TestEventBus:
    def test_publish_delivers_in_emission_order_with_monotonic_seq(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish("note", {"note": "a"})
        bus.publish("heartbeat", {"done": 1})
        bus.publish("note", {"note": "b"})
        assert [event.kind for event in seen] == ["note", "heartbeat", "note"]
        assert [event.seq for event in seen] == [0, 1, 2]
        assert bus.events_emitted == 3

    def test_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.publish("note", {})
        assert order == ["first", "second"]

    def test_raising_subscriber_is_counted_and_skipped(self):
        bus = EventBus()
        delivered = []

        def bad(event):
            raise RuntimeError("observer bug")

        bus.subscribe(bad)
        bus.subscribe(delivered.append)
        bus.publish("note", {})
        bus.publish("note", {})
        # The campaign must never feel an observer failure: both events
        # still reached the healthy subscriber, and the failures are
        # visible in the bus stats rather than raised.
        assert len(delivered) == 2
        assert bus.subscriber_errors == 2

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.unsubscribe(seen.append)  # absent: no-op
        bus.publish("note", {})
        assert seen == []

    def test_event_to_dict_is_json_stable(self):
        event = CampaignEvent(seq=3, t=12.3456789, kind="note", payload={"a": 1})
        encoded = event.to_dict()
        assert encoded == {"seq": 3, "t": 12.345679, "kind": "note", "payload": {"a": 1}}


class TestModuleBus:
    def test_emit_without_bus_is_a_noop(self):
        assert not events.enabled()
        events.emit("note", note="dropped on the floor")  # must not raise

    def test_install_emit_uninstall_roundtrip(self):
        bus = events.install()
        assert events.enabled()
        assert events.current() is bus
        seen = []
        bus.subscribe(seen.append)
        events.emit("note", note="hello")
        assert [event.kind for event in seen] == ["note"]
        assert events.uninstall() is bus
        assert not events.enabled()

    def test_install_restore_nesting(self):
        outer = events.install()
        previous = events.current()
        inner = events.install(EventBus())
        assert events.current() is inner
        events.restore(previous)
        assert events.current() is outer

    def test_emit_allows_kind_as_payload_key(self):
        # ``emit`` takes its own kind positional-only, so payloads may
        # carry a ``kind`` field (campaign_start does: the register kind).
        bus = events.install()
        seen = []
        bus.subscribe(seen.append)
        events.emit("campaign_start", kind="gpr", total=10)
        assert seen[0].payload == {"kind": "gpr", "total": 10}


class TestSchema:
    def test_schema_version_pinned(self):
        assert EVENT_SCHEMA_VERSION == 2

    def test_kind_vocabulary_pinned(self):
        # Removing a kind (or renaming one) is a schema break; this
        # pin forces the version bump the docs promise.
        assert EVENT_KINDS == {
            "campaign_start",
            "campaign_finish",
            "chunk_done",
            "round_done",
            "retry",
            "degrade",
            "watchdog_hang",
            "journal_checkpoint",
            "journal_resume",
            "stratum_converged",
            "golden_tail",
            "heartbeat",
            "note",
            "interrupt",
        }
