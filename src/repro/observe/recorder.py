"""Bounded flight recorder: the last N events, dumped on trouble.

The recorder subscribes to the event bus and keeps a ring of the most
recent campaign events (spans, counters and metrics are skipped, so the
ring's slots hold post-mortem context, not timings).  When the campaign hits an anomaly — a
watchdog hang, a worker-pool retry/degrade, an interrupt — the ring is
flagged as *triggered*, and the observe session dumps it as a JSONL
post-mortem artifact so an operator can reconstruct the final moments
of a dead campaign without re-running it.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path

from repro.observe.events import EVENT_SCHEMA_VERSION, METRIC_KINDS, CampaignEvent

#: Ring capacity by default — small enough to dump instantly, large
#: enough to cover many chunks of context before an anomaly.
DEFAULT_CAPACITY = 512

#: Event kinds that arm the post-mortem dump.
TRIGGER_KINDS = frozenset({"watchdog_hang", "retry", "degrade", "interrupt"})


class FlightRecorder:
    """Event-bus subscriber keeping the last ``capacity`` campaign events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"flight-recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.ring: deque[CampaignEvent] = deque(maxlen=capacity)
        self.events_seen = 0
        self.triggered = False
        self.trigger_kinds_seen: list[str] = []

    def __call__(self, event: CampaignEvent) -> None:
        if event.kind in METRIC_KINDS:
            return
        self.events_seen += 1
        self.ring.append(event)
        if event.kind in TRIGGER_KINDS:
            self.triggered = True
            self.trigger_kinds_seen.append(event.kind)

    def dump(self, path: str | os.PathLike) -> Path:
        """Write the ring as JSONL: one header line, then the events."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "flight_recorder": 1,
            "event_schema": EVENT_SCHEMA_VERSION,
            "capacity": self.capacity,
            "events_seen": self.events_seen,
            "events_kept": len(self.ring),
            "triggered": self.triggered,
            "trigger_kinds": self.trigger_kinds_seen,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(event.to_dict(), sort_keys=True) for event in self.ring
        )
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path


def read_dump(path: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Load one dump: ``(header, events)``; raises on malformed lines."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"flight-recorder dump {path} is empty")
    header = json.loads(lines[0])
    events = [json.loads(line) for line in lines[1:] if line.strip()]
    return header, events
