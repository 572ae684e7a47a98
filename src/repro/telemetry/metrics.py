"""Process-local metrics: counters, gauges and monotonic timers.

The registry is the fold of the event stream (:meth:`MetricsRegistry.fold`):
spans become timers and ``cycles.<stage>`` counters, counter and gauge
events move their metric, a chunk's ``metrics`` event merges, and a few
campaign events are counted under fixed names (:data:`EVENT_COUNTERS`).
:func:`run_buffered` gives an injection chunk its own bus, so the
parent can re-publish the chunk's events once it is secured (see
:mod:`repro.faultinject.parallel`).  Plain Python over ``dict``, no
third-party dependencies.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.observe import events

#: Registry counters derived from campaign events — the event is the
#: one tally, and these names are its registry view.
EVENT_COUNTERS = {
    "retry": "campaign.retries",
    "degrade": "campaign.degraded",
    "watchdog_hang": "campaign.watchdog_hangs",
    "golden_tail": "campaign.fanout.golden_tail",
    "journal_checkpoint": "campaign.journal_checkpoints",
    "note": "campaign.notes",
}


class MetricsRegistry:
    """Named counters (ints), gauges (floats) and timers (wall seconds).

    Timers accumulate ``[count, total_seconds, max_seconds]`` per name.
    Snapshots are plain JSON-serializable dicts with sorted keys, and
    :meth:`merge_snapshot` folds one snapshot into this registry —
    counters and timer totals add, gauges take the snapshot's value.
    """

    __slots__ = ("_counters", "_gauges", "_timers")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration observation into timer ``name``."""
        stat = self._timers.get(name)
        if stat is None:
            self._timers[name] = [1, seconds, seconds]
        else:
            stat[0] += 1
            stat[1] += seconds
            if seconds > stat[2]:
                stat[2] = seconds

    def fold(self, kind: str, payload: Mapping) -> None:
        """Fold one bus event into the registry (other kinds are ignored)."""
        if kind == "span":
            name = payload["name"]
            self.observe(f"span.{name}", payload["wall_s"])
            if payload["cycles"]:
                self.inc(f"cycles.{name}", payload["cycles"])
        elif kind == "counter":
            self.inc(payload["name"], payload["by"])
        elif kind == "gauge":
            self.set_gauge(payload["name"], payload["value"])
        elif kind == "metrics":
            self.merge_snapshot(payload)
        elif kind in EVENT_COUNTERS:
            self.inc(EVENT_COUNTERS[kind], int(payload.get("count", 1)))
            if kind == "golden_tail" and any(
                payload.get(field)
                for field in ("cycle_offset", "closed_minis", "overrun", "open_pixels")
            ):
                # A tail spliced past a nonzero residue, not an exact one.
                self.inc("campaign.fanout.spliced")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never bumped)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name`` (None when never set)."""
        return self._gauges.get(name)

    def timer(self, name: str) -> tuple[int, float, float] | None:
        """``(count, total_s, max_s)`` for timer ``name``, or None."""
        stat = self._timers.get(name)
        return None if stat is None else (int(stat[0]), stat[1], stat[2])

    def snapshot(self) -> dict:
        """A JSON-serializable copy of the whole registry."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "timers": {
                k: {
                    "count": int(self._timers[k][0]),
                    "total_s": self._timers[k][1],
                    "max_s": self._timers[k][2],
                }
                for k in sorted(self._timers)
            },
        }

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold one :meth:`snapshot` payload into this registry.

        Counters and timer counts/totals add; timer maxima take the
        maximum; gauges take the snapshot's value.
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, stat in snap.get("timers", {}).items():
            mine = self._timers.get(name)
            if mine is None:
                self._timers[name] = [stat["count"], stat["total_s"], stat["max_s"]]
            else:
                mine[0] += stat["count"]
                mine[1] += stat["total_s"]
                if stat["max_s"] > mine[2]:
                    mine[2] = stat["max_s"]

    def clear(self) -> None:
        """Drop every metric (test isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


def run_buffered(fn: Callable, *args) -> tuple[object, list[tuple[str, dict]]]:
    """Run ``fn(*args)`` under a chunk-local bus: ``(result, events)``.

    ``events`` holds the campaign events as ``(kind, payload)`` pairs in
    emission order, then one ``metrics`` event folding every metric
    event.  The previous bus is restored whatever ``fn`` does.
    """
    registry = MetricsRegistry()
    kept: list[tuple[str, dict]] = []

    def buffer(event: events.CampaignEvent) -> None:
        if event.kind in events.METRIC_KINDS:
            registry.fold(event.kind, event.payload)
        else:
            kept.append((event.kind, dict(event.payload)))

    previous = events.current()
    events.install(events.EventBus([buffer]))
    try:
        result = fn(*args)
    finally:
        events.restore(previous)
    kept.append(("metrics", registry.snapshot()))
    return result, kept
