"""Stage-level tracing: the trace recorder on the event bus.

Spans and counters are bus events (:mod:`repro.observe.events`).  A
:class:`Tracer` subscribes to them: it keeps the span events for the
JSONL export and folds every event into a
:class:`~repro.telemetry.metrics.MetricsRegistry`.  :func:`enable`
attaches one to the process bus (installing the bus when none is
active); :func:`disable` detaches it.

Determinism contract: tracing only *observes*.  It never touches an RNG,
a register window or a cycle counter, so enabling it cannot change any
campaign outcome, running rate or SDC payload (asserted end to end by
``tests/telemetry/test_campaign_equivalence.py``).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Mapping, Optional

from repro.observe import events
from repro.observe.events import _NULL_SPAN, CampaignEvent, _SpanGuard  # noqa: F401
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime.context import ExecutionContext

#: Environment variable that enables tracing at import time.  ``0`` and
#: the empty string leave tracing off; any other value enables it, and a
#: value containing a path separator or ending in ``.jsonl`` is treated
#: as a trace-export path written at interpreter exit.
TRACE_ENV = "REPRO_TRACE"

#: Span events kept per tracer before new ones are counted, not stored
#: (the ``trace.dropped_events`` counter records the overflow — no
#: silent truncation).
DEFAULT_MAX_EVENTS = 250_000


class Tracer:
    """Bus subscriber keeping span events and the metrics registry."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.registry = MetricsRegistry()
        self.events: list[dict] = []
        self.max_events = max_events
        self.span_stack: list[str] = []
        self._seq = 0

    def __call__(self, event: CampaignEvent) -> None:
        self.publish(event.kind, event.payload)

    def publish(self, kind: str, payload: Mapping) -> None:
        """Fold one event; spans are also kept, up to the event cap."""
        if kind == "span":
            self._seq += 1
            if len(self.events) < self.max_events:
                self.events.append({"type": "span", "seq": self._seq, **payload})
            else:
                if self.registry.counter("trace.dropped_events") == 0:
                    # First drop: record the cap so trace consumers can
                    # say exactly which limit truncated the buffer.
                    self.registry.set_gauge("trace.event_cap", float(self.max_events))
                self.registry.inc("trace.dropped_events")
        self.registry.fold(kind, payload)

    def span(self, name: str, ctx: Optional["ExecutionContext"] = None) -> _SpanGuard:
        """A span measured straight into this tracer, bus or not."""
        return _SpanGuard(self, name, ctx)

    @property
    def current_span(self) -> str | None:
        """Name of the innermost open span (this tracer's, else the bus's)."""
        bus = events.current()
        stack = self.span_stack or (bus.span_stack if bus is not None else [])
        return stack[-1] if stack else None


#: Export path requested via ``REPRO_TRACE=<path>`` (written at exit).
_ENV_EXPORT_PATH: str | None = None


def get_tracer() -> Tracer | None:
    """The tracer subscribed to the process bus, or None."""
    bus = events.current()
    if bus is None:
        return None
    return next((sub for sub in bus.subscribers if isinstance(sub, Tracer)), None)


def enabled() -> bool:
    """True when tracing is on for this process."""
    return get_tracer() is not None


def enable(max_events: int = DEFAULT_MAX_EVENTS) -> Tracer:
    """Turn tracing on (idempotent); returns the active tracer."""
    tracer = get_tracer()
    if tracer is None:
        tracer = Tracer(max_events=max_events)
        (events.current() or events.install()).subscribe(tracer)
    return tracer


def disable() -> Tracer | None:
    """Turn tracing off; returns the tracer that was active, if any.

    A bus left without subscribers is uninstalled, so every emission
    point is back to its ``None`` check.
    """
    tracer = get_tracer()
    if tracer is not None:
        bus = events.current()
        bus.unsubscribe(tracer)
        if not bus.subscribers:
            events.uninstall()
    return tracer


def activate_from_env() -> Tracer | None:
    """Enable tracing when ``REPRO_TRACE`` asks for it (import hook).

    ``REPRO_TRACE=1`` (or any other non-path truthy value) turns tracing
    on; ``REPRO_TRACE=/path/to/trace.jsonl`` additionally registers an
    atexit export of the trace to that path.
    """
    global _ENV_EXPORT_PATH
    raw = os.environ.get(TRACE_ENV, "")
    if raw in ("", "0", "false", "no", "off"):
        return None
    tracer = enable()
    if (os.sep in raw or raw.endswith(".jsonl")) and _ENV_EXPORT_PATH is None:
        import atexit

        _ENV_EXPORT_PATH = raw

        def _export() -> None:
            from repro.telemetry.export import write_trace

            write_trace(_ENV_EXPORT_PATH, tracer)

        atexit.register(_export)
    return tracer
