"""Typed campaign event bus: one subscriber API for live observability.

The campaign engine — :mod:`repro.faultinject.campaign`, the parallel
executor, the checkpoint journal and the stratified sampling loop —
emits :class:`CampaignEvent` records describing everything an operator
would want to watch: campaign start/finish, chunk/group/round
completion, retries and degradation, watchdog hangs, journal
checkpoints and resumes, stratum convergence, fan-out golden tails and
heartbeat progress.  Subscribers (the status-snapshot writer, the
flight recorder, tests) receive every event in emission order.

Determinism contract — the same one tracing and probes honour:

* **Disabled cost is one ``None`` check.**  ``emit`` reads one module
  global; with no bus installed it returns immediately, so the
  emission points in the campaign hot paths cost nothing measurable.
* **Observation never perturbs.**  A subscriber that raises is counted
  (``EventBus.subscriber_errors``) and skipped — an exception in a
  status writer must never abort, reorder or otherwise change a
  campaign.  Observed campaigns are bit-identical to unobserved ones
  at any worker count and across interrupt/resume (pinned by
  ``tests/observe/test_observed_equivalence.py``).
* Events are emitted **parent-side only**: worker processes never have
  a bus installed, so fan-out never duplicates events.

The payload vocabulary is versioned like the journal schema:
``EVENT_SCHEMA_VERSION`` bumps whenever a kind is removed or a payload
field changes meaning (adding kinds or fields is compatible).  The
full schema is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: Bump when an event kind is removed or a payload field changes
#: meaning; adding new kinds or payload fields is backward compatible.
#: v2: one dispatch unit — ``chunk_done`` only; the serial loop's
#: per-injection kind and the fan-out group kind are gone.
EVENT_SCHEMA_VERSION = 2

#: Every event kind the engine emits (the typed vocabulary).  Tests
#: assert emitted kinds stay inside this set; subscribers may rely on
#: unknown kinds never appearing within one schema version.
EVENT_KINDS = frozenset(
    {
        "campaign_start",  # one campaign began (mode, total, workers)
        "campaign_finish",  # final outcome counts
        "chunk_done",  # one dispatch group secured (the journal's chunk)
        "round_done",  # one stratified sampling round absorbed
        "retry",  # a worker-pool failure triggered a chunk retry
        "degrade",  # worker count halved / serial fallback engaged
        "watchdog_hang",  # a secured chunk carried watchdog-hang runs
        "journal_checkpoint",  # one chunk/round fsync'd to the journal
        "journal_resume",  # a resume replayed journaled work
        "stratum_converged",  # one stratified cell reached its CI target
        "golden_tail",  # fan-out synthesized a golden tail
        "heartbeat",  # rate-limited progress (done/total/rate/ETA)
        "note",  # free-form annotation (probe/fast-forward/... banners)
        "interrupt",  # the campaign stopped early (abort hook, Ctrl-C)
    }
)


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
    """Synchronous fan-out of campaign events to subscribers.

    Emission order is delivery order; subscribers run in subscription
    order.  Subscriber exceptions are swallowed and counted — the bus
    exists to observe a campaign, never to influence one.
    """

    def __init__(self) -> None:
        self._subscribers: list[Subscriber] = []
        self.next_seq = 0
        self.events_emitted = 0
        self.subscriber_errors = 0

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register ``subscriber``; returns it (decorator-friendly)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove one subscription (no-op when absent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def publish(self, kind: str, payload: Mapping[str, object]) -> CampaignEvent:
        """Deliver one event to every subscriber; returns the event."""
        event = CampaignEvent(
            seq=self.next_seq, t=time.time(), kind=kind, payload=payload
        )
        self.next_seq += 1
        self.events_emitted += 1
        for subscriber in tuple(self._subscribers):
            try:
                subscriber(event)
            except Exception:
                # Observability must never abort a campaign: count the
                # failure (surfaced via bus stats) and keep going.
                self.subscriber_errors += 1
        return event


#: The process-local bus; ``None`` means observation is off (the
#: default) and every ``emit`` is a single-check no-op — the same
#: fast-path idiom as ``repro.telemetry.tracing._TRACER``.
_BUS: EventBus | None = None


def enabled() -> bool:
    """True when an event bus is installed in this process."""
    return _BUS is not None


def current() -> EventBus | None:
    """The installed bus, or None while observation is off."""
    return _BUS


def install(bus: EventBus | None = None) -> EventBus:
    """Install ``bus`` (or a fresh one) as the process bus.

    Returns the now-active bus.  Callers that need nesting safety keep
    the previous return of :func:`current` and restore it via
    :func:`restore` — the ``observe_campaign`` context manager does.
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
    """Publish one event — the single-check fast path.

    With no bus installed this is one global read and a ``None``
    comparison, so emission points stay free in unobserved campaigns.
    """
    bus = _BUS
    if bus is not None:
        bus.publish(kind, payload)
