"""MetricsRegistry: counters, gauges, timers and deterministic merging."""

from __future__ import annotations

import json

from repro.telemetry.metrics import MetricsRegistry


class TestRecording:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") == 0
        reg.inc("hits")
        reg.inc("hits", 4)
        assert reg.counter("hits") == 5

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        assert reg.gauge("load") is None
        reg.set_gauge("load", 0.5)
        reg.set_gauge("load", 2)
        assert reg.gauge("load") == 2.0
        assert isinstance(reg.gauge("load"), float)

    def test_timers_track_count_total_max(self):
        reg = MetricsRegistry()
        assert reg.timer("stage") is None
        reg.observe("stage", 0.25)
        reg.observe("stage", 1.0)
        reg.observe("stage", 0.5)
        count, total, peak = reg.timer("stage")
        assert count == 3
        assert total == 1.75
        assert peak == 1.0

    def test_golden_tails_with_a_residue_count_as_spliced(self):
        reg = MetricsRegistry()
        reg.fold("golden_tail", {"frame": 3, "cycle_offset": 0, "closed_minis": 0, "overrun": False})
        reg.fold("golden_tail", {"frame": 4, "cycle_offset": -70, "closed_minis": 0, "overrun": False})
        reg.fold("golden_tail", {"frame": 5, "cycle_offset": 0, "closed_minis": 1, "overrun": False})
        reg.fold("golden_tail", {"frame": 6, "cycle_offset": 0, "closed_minis": 0, "overrun": True})
        reg.fold(
            "golden_tail",
            {"frame": 7, "cycle_offset": 0, "closed_minis": 0, "overrun": False, "open_pixels": 1},
        )
        assert reg.counter("campaign.fanout.golden_tail") == 5
        assert reg.counter("campaign.fanout.spliced") == 4


class TestSnapshot:
    def test_snapshot_is_json_serializable_and_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        reg.set_gauge("g", 1.5)
        reg.observe("t", 0.1)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["timers"]["t"] == {"count": 1, "total_s": 0.1, "max_s": 0.1}

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("n")
        snap = reg.snapshot()
        reg.inc("n")
        assert snap["counters"]["n"] == 1

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.set_gauge("g", 1)
        reg.observe("t", 1)
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestMerge:
    def test_merge_adds_counters_and_timer_totals(self):
        first = MetricsRegistry()
        first.inc("runs", 3)
        first.observe("stage", 1.0)
        second = MetricsRegistry()
        second.inc("runs", 2)
        second.observe("stage", 3.0)
        second.observe("stage", 0.5)

        first.merge_snapshot(second.snapshot())
        assert first.counter("runs") == 5
        count, total, peak = first.timer("stage")
        assert count == 3
        assert total == 4.5
        assert peak == 3.0

    def test_merge_into_empty_registry(self):
        source = MetricsRegistry()
        source.inc("n", 7)
        source.set_gauge("g", 2.5)
        source.observe("t", 0.2)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_chunk_order_merge_is_deterministic(self):
        """Merging the same snapshots in the same order twice agrees."""
        snaps = []
        for index in range(4):
            reg = MetricsRegistry()
            reg.inc("campaign.runs", index + 1)
            reg.set_gauge("last_chunk", index)
            reg.observe("span.stage", 0.1 * (index + 1))
            snaps.append(reg.snapshot())

        merged_a = MetricsRegistry()
        merged_b = MetricsRegistry()
        for snap in snaps:
            merged_a.merge_snapshot(snap)
            merged_b.merge_snapshot(snap)
        assert merged_a.snapshot() == merged_b.snapshot()
        # Gauges take the *last* chunk's value — order defines the result.
        assert merged_a.gauge("last_chunk") == 3.0
        assert merged_a.counter("campaign.runs") == 1 + 2 + 3 + 4

    def test_merge_tolerates_partial_snapshots(self):
        reg = MetricsRegistry()
        reg.merge_snapshot({})  # must not raise
        reg.merge_snapshot({"counters": {"n": 1}})
        assert reg.counter("n") == 1
