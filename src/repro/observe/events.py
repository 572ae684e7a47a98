"""The instrumentation spine: one typed event bus for everything observed.

Campaign events (start/finish, chunks, rounds, retries, hangs, journal
checkpoints, golden tails, notes) and metric events (a ``span`` per
measured region, a ``counter``/``gauge`` per update, one ``metrics``
snapshot per executed chunk) all go through the one process-local bus.
Subscribers — the tracer, the status writer, the flight recorder, the
stderr heartbeat, tests — receive every event in emission order and
keep what they need.

Determinism contract:

* **Disabled cost is one ``None`` check.**  Every emission point reads
  the module global ``_BUS`` and returns at once while it is ``None``.
* **Observation never perturbs.**  A subscriber that raises is counted
  (``EventBus.subscriber_errors``) and skipped; observed campaigns are
  bit-identical to unobserved ones at any worker count and across
  interrupt/resume (``tests/observe/test_observed_equivalence.py``).
* **Worker events come back with the results.**  While a bus is
  installed, each injection chunk runs under a chunk-local buffering
  bus (:func:`repro.telemetry.metrics.run_buffered`), and the parent
  re-publishes its events when the chunk is secured.

``EVENT_SCHEMA_VERSION`` bumps whenever a kind is removed or a payload
field changes meaning (adding kinds or fields is compatible); the
schema is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime.context import ExecutionContext

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: v2: one dispatch unit — ``chunk_done`` only.  v3: spans, counters and
#: gauges are events (``span``/``counter``/``gauge``/``metrics``),
#: ``golden_tail`` also arrives from pool workers, and ``heartbeat`` is
#: gone (``chunk_done`` carries the progress it repeated).  v4: one
#: journal record type — ``journal_checkpoint`` carries the chunk's
#: ``round`` instead of an ``index``, and ``journal_resume`` lost
#: ``units``.
EVENT_SCHEMA_VERSION = 4

#: What the engine reports to an operator (status, flight recorder).
CAMPAIGN_KINDS = frozenset(
    {
        "campaign_start",  # one campaign began (mode, total, workers)
        "campaign_finish",  # final outcome counts
        "chunk_done",  # one chunk secured (the journal's chunk)
        "round_done",  # one stratified sampling round absorbed
        "retry",  # a worker-pool failure triggered a chunk retry
        "degrade",  # worker count halved / serial fallback engaged
        "watchdog_hang",  # a secured chunk carried watchdog-hang runs
        "journal_checkpoint",  # one chunk fsync'd to the journal
        "journal_resume",  # a resume replayed journaled work
        "stratum_converged",  # one stratified cell reached its CI target
        "golden_tail",  # fan-out synthesized a golden tail
        "note",  # free-form annotation (probe/fast-forward/... banners)
        "interrupt",  # the campaign stopped early (abort hook, Ctrl-C)
    }
)

#: What the metrics registry folds (timers, counters, gauges).
METRIC_KINDS = frozenset(
    {
        "span",  # one measured region closed (wall/cpu/rss/cycles)
        "counter",  # a named counter moved by ``by``
        "gauge",  # a named gauge took ``value``
        "metrics",  # one chunk's folded registry snapshot
    }
)

#: Every event kind (the typed vocabulary).  Tests assert emitted kinds
#: stay inside this set; subscribers may rely on unknown kinds never
#: appearing within one schema version.
EVENT_KINDS = CAMPAIGN_KINDS | METRIC_KINDS


@dataclass(frozen=True)
class CampaignEvent:
    """One typed event: a monotonic sequence number, kind and payload.

    ``t`` is a wall-clock timestamp (``time.time()``) for post-mortem
    correlation; nothing in the engine ever reads it back, so it cannot
    perturb determinism.
    """

    seq: int
    t: float
    kind: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-stable encoding (flight-recorder dumps)."""
        return {
            "seq": self.seq,
            "t": round(self.t, 6),
            "kind": self.kind,
            "payload": dict(self.payload),
        }


Subscriber = Callable[[CampaignEvent], None]


class EventBus:
    """Synchronous fan-out of events to subscribers, in emission order.

    Subscriber exceptions are swallowed and counted — the bus exists to
    observe a campaign, never to influence one.  ``span_stack`` holds
    the open span names, so span events carry parent and depth.
    """

    def __init__(self, subscribers: Iterable[Subscriber] = ()) -> None:
        self.subscribers: list[Subscriber] = list(subscribers)
        self.span_stack: list[str] = []
        self.events_emitted = 0  # also the next event's seq
        self.subscriber_errors = 0

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register ``subscriber``; returns it (decorator-friendly)."""
        self.subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove one subscription (no-op when absent)."""
        if subscriber in self.subscribers:
            self.subscribers.remove(subscriber)

    def publish(self, kind: str, payload: Mapping[str, object]) -> CampaignEvent:
        """Deliver one event to every subscriber; returns the event."""
        event = CampaignEvent(
            seq=self.events_emitted, t=time.time(), kind=kind, payload=payload
        )
        self.events_emitted += 1
        for subscriber in tuple(self.subscribers):
            try:
                subscriber(event)
            except Exception:
                # Observability must never abort a campaign: count the
                # failure (surfaced via bus stats) and keep going.
                self.subscriber_errors += 1
        return event


#: The process-local bus — the package's one instrumentation hook.
#: ``None`` means observation is off (the default) and every emission
#: point is a single-check no-op.
_BUS: EventBus | None = None


def enabled() -> bool:
    """True when an event bus is installed in this process."""
    return _BUS is not None


def current() -> EventBus | None:
    """The installed bus, or None while observation is off."""
    return _BUS


def install(bus: EventBus | None = None) -> EventBus:
    """Install ``bus`` (or a fresh one) as the process bus; returns it.

    Callers that nest keep the previous :func:`current` and hand it to
    :func:`restore` afterwards.
    """
    global _BUS
    _BUS = bus if bus is not None else EventBus()
    return _BUS


def restore(previous: EventBus | None) -> None:
    """Re-install ``previous`` (possibly None) as the process bus."""
    global _BUS
    _BUS = previous


def uninstall() -> EventBus | None:
    """Remove the process bus; returns the bus that was active."""
    global _BUS
    bus, _BUS = _BUS, None
    return bus


def emit(kind: str, /, **payload: object) -> None:
    """Publish one event — the single-check fast path."""
    bus = _BUS
    if bus is not None:
        bus.publish(kind, payload)


# ---------------------------------------------------------------------------
# Metric events: spans, counters, gauges
# ---------------------------------------------------------------------------


def _peak_rss_kb() -> int:
    """Peak RSS of this process in kilobytes (0 where unsupported)."""
    if _resource is None:  # pragma: no cover - non-POSIX fallback
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class _SpanGuard:
    """Measures one region and publishes it as a ``span`` event.

    ``sink`` — the bus current at opening, or a standalone
    :class:`~repro.telemetry.tracing.Tracer` — has a ``span_stack`` and
    a ``publish(kind, payload)`` method.
    """

    __slots__ = ("_sink", "_name", "_ctx", "_wall0", "_cpu0", "_rss0", "_cycles0")

    def __init__(self, sink, name: str, ctx: Optional["ExecutionContext"]) -> None:
        self._sink = sink
        self._name = name
        self._ctx = ctx

    def __enter__(self) -> "_SpanGuard":
        self._sink.span_stack.append(self._name)
        self._rss0 = _peak_rss_kb()
        self._cycles0 = self._ctx.cycles if self._ctx is not None else 0
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = time.perf_counter() - self._wall0
        cpu_s = time.process_time() - self._cpu0
        stack = self._sink.span_stack
        stack.pop()
        self._sink.publish(
            "span",
            {
                "name": self._name,
                "parent": stack[-1] if stack else None,
                "depth": len(stack),
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "rss_peak_delta_kb": _peak_rss_kb() - self._rss0,
                "cycles": (self._ctx.cycles - self._cycles0) if self._ctx is not None else 0,
                "error": exc_type.__name__ if exc_type is not None else None,
            },
        )
        return False


class _NullSpan:
    """The shared do-nothing guard returned while no bus is installed."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, ctx: Optional["ExecutionContext"] = None):
    """A span guard for ``name`` — the single-check fast path.

    Measures wall time, CPU time, the peak-RSS delta and, with an
    :class:`~repro.runtime.context.ExecutionContext`, the simulated
    cycles the region charged::

        with telemetry.span("vision.orb", ctx=ctx):
            ...
    """
    bus = _BUS
    if bus is None:
        return _NULL_SPAN
    return _SpanGuard(bus, name, ctx)


def traced(name: str | None = None) -> Callable:
    """Decorator wrapping a function in a span named after it."""

    def decorate(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def counter_inc(name: str, by: int = 1) -> None:
    """Publish a ``counter`` event (no-op while no bus is installed)."""
    bus = _BUS
    if bus is not None:
        bus.publish("counter", {"name": name, "by": by})


def gauge_set(name: str, value: float) -> None:
    """Publish a ``gauge`` event (no-op while no bus is installed)."""
    bus = _BUS
    if bus is not None:
        bus.publish("gauge", {"name": name, "value": float(value)})
