"""Lightweight, zero-dependency observability for the reproduction.

Everything measured is an event on the one process bus
(:mod:`repro.observe.events`); this package is the tracing side of it,
off by default:

* :func:`span` / :func:`traced` / :func:`counter_inc` / :func:`gauge_set`
  — emission points.  A span captures wall/CPU time, peak-RSS deltas
  and the simulated cycles an
  :class:`~repro.runtime.context.ExecutionContext` charged inside it.
  With no bus installed each costs a single ``None`` check.
* :class:`~repro.telemetry.tracing.Tracer` — the bus subscriber that
  keeps span events and folds everything into a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
  timers; chunk snapshots from parallel workers merge into it).
* :mod:`~repro.telemetry.export` — JSONL trace files and the
  ``repro trace summarize`` stage-time table.
* :class:`~repro.telemetry.progress.Heartbeat` — stderr progress lines
  folded from campaign events.

Enable programmatically with :func:`enable` (pair with
:func:`~repro.telemetry.export.write_trace`), from the CLI with
``--trace PATH``, or for a whole process with ``REPRO_TRACE=1`` /
``REPRO_TRACE=/path/trace.jsonl`` in the environment.

Tracing never changes results: campaigns run with telemetry enabled are
bit-identical to untraced runs at any worker count (see
``tests/telemetry/test_campaign_equivalence.py``).
"""

from repro.observe.events import counter_inc, gauge_set, span, traced
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.progress import (
    HEARTBEAT_INTERVAL_ENV,
    Heartbeat,
    campaign_heartbeat,
    resolve_heartbeat_interval,
)
from repro.telemetry.tracing import (
    DEFAULT_MAX_EVENTS,
    TRACE_ENV,
    Tracer,
    activate_from_env,
    disable,
    enable,
    enabled,
    get_tracer,
)

__all__ = [
    "MetricsRegistry",
    "Heartbeat",
    "HEARTBEAT_INTERVAL_ENV",
    "campaign_heartbeat",
    "resolve_heartbeat_interval",
    "Tracer",
    "TRACE_ENV",
    "DEFAULT_MAX_EVENTS",
    "activate_from_env",
    "counter_inc",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "get_tracer",
    "span",
    "traced",
]

# One-time environment activation (REPRO_TRACE=1 or a trace path).
activate_from_env()
