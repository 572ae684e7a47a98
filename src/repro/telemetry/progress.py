"""Campaign progress heartbeats: injections/sec, ETA, cache hit rate.

A :class:`Heartbeat` is an event-bus subscriber: it folds a campaign's
``campaign_start``, ``chunk_done`` and ``note`` events into at most one
line per ``interval_s`` on ``stream`` (stderr by default, so
machine-readable stdout output stays clean), plus a final line when the
campaign completes and one line per note::

    [campaign gpr] 120/400 injections | 5.3 inj/s | ETA 53s | golden-cache 7/8 hits

The cadence is configurable: ``--heartbeat-interval`` on the CLI or the
``REPRO_HEARTBEAT_INTERVAL`` environment variable (validated the same
way as ``REPRO_WORKERS`` — a bad value raises a ValueError naming its
source).  :func:`campaign_heartbeat` attaches one for the duration of a
campaign while tracing is on and the campaign is not ``quiet``; the
heartbeat only formats events, it never touches campaign state.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

from repro.observe import events as observe_events
from repro.telemetry.tracing import enabled as tracing_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.campaign import CampaignConfig

#: Environment override for the heartbeat cadence (seconds).
HEARTBEAT_INTERVAL_ENV = "REPRO_HEARTBEAT_INTERVAL"

#: Cadence used when neither the CLI flag nor the env var is set.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


def _parse_interval(raw: object, source: str) -> float:
    """Validate one cadence value, naming ``source`` in errors."""
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a number of seconds, got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"{source} must be a positive finite number of seconds, got {raw!r}"
        )
    return value


def resolve_heartbeat_interval(requested: float | None = None) -> float:
    """The heartbeat cadence: explicit value, else env var, else 2.0 s."""
    if requested is not None:
        return _parse_interval(requested, "heartbeat interval")
    raw = os.environ.get(HEARTBEAT_INTERVAL_ENV)
    if raw is None or raw == "":
        return DEFAULT_HEARTBEAT_INTERVAL
    return _parse_interval(raw, HEARTBEAT_INTERVAL_ENV)


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class Heartbeat:
    """Rate-limited progress reporting, folded from campaign events."""

    def __init__(
        self,
        total: int = 0,
        label: str = "campaign",
        interval_s: float = DEFAULT_HEARTBEAT_INTERVAL,
        stream: TextIO | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.total = total
        self.label = label
        self.interval_s = _parse_interval(interval_s, "heartbeat interval")
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.start = clock()
        self._last_emit = float("-inf")
        self.lines_emitted = 0
        self.note = ""

    def __call__(self, event: observe_events.CampaignEvent) -> None:
        payload = event.payload
        if event.kind == "campaign_start":
            # Stratified campaigns have no total up front: notes only.
            total = payload.get("total")
            self.total = total if isinstance(total, int) else 0
            self.label = f"campaign {payload.get('kind', '')}".rstrip()
            if payload.get("mode") == "stratified":
                self.label += " (stratified)"
            self.start = self.clock()
            self._last_emit = float("-inf")
            self.note = ""
        elif event.kind == "chunk_done" and self.total:
            self.update(int(payload["done"]))
        elif event.kind == "note":
            # Rare and worth seeing at once: printed on its own line,
            # then suffixed to progress lines until replaced.
            self.note = str(payload["note"])
            print(f"[{self.label}] {self.note}", file=self.stream)
            self.lines_emitted += 1

    def _cache_suffix(self) -> str:
        from repro.summarize.golden import golden_cache_stats

        stats = golden_cache_stats()
        lookups = stats.hits + stats.computes
        if lookups == 0:
            return ""
        return f" | golden-cache {stats.hits}/{lookups} hits"

    def update(self, done: int) -> None:
        """Report ``done`` completed units; prints when due."""
        now = self.clock()
        final = done >= self.total
        if not final and now - self._last_emit < self.interval_s:
            return
        self._last_emit = now
        elapsed = max(now - self.start, 1e-9)
        rate = done / elapsed
        eta = "0s" if final or rate <= 0 else _format_eta((self.total - done) / rate)
        note_suffix = f" | {self.note}" if self.note else ""
        print(
            f"[{self.label}] {done}/{self.total} injections | "
            f"{rate:.1f} inj/s | ETA {eta}{self._cache_suffix()}{note_suffix}",
            file=self.stream,
        )
        self.lines_emitted += 1


@contextlib.contextmanager
def campaign_heartbeat(config: "CampaignConfig") -> Iterator[Heartbeat | None]:
    """Print stderr progress for one campaign while tracing is on.

    Nothing is attached for a ``quiet`` campaign or an untraced one
    (``--status`` alone never adds stderr output).
    """
    bus = observe_events.current()
    if config.quiet or bus is None or not tracing_enabled():
        yield None
        return
    beat = Heartbeat(interval_s=resolve_heartbeat_interval(config.heartbeat_interval))
    bus.subscribe(beat)
    try:
        yield beat
    finally:
        bus.unsubscribe(beat)
