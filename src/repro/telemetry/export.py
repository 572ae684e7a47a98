"""Trace export (JSONL) and stage-time summarization.

A trace file is newline-delimited JSON:

* one ``{"type": "meta", ...}`` header (schema version, pid, platform),
* one ``{"type": "span", ...}`` record per recorded span — name, parent,
  depth, wall/cpu seconds, peak-RSS delta (kB), simulated cycles,
* one final ``{"type": "metrics", ...}`` record holding the full
  registry snapshot (counters, gauges, timers), which carries aggregated
  worker-side stage timers even when per-span events were recorded in
  another process.

``repro trace summarize <trace.jsonl>`` renders the per-stage table via
:func:`summarize_trace` / :func:`render_summary`.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.tracing import Tracer

#: Bumped whenever the record layout changes incompatibly.
SCHEMA_VERSION = 1


def write_trace(path: str | os.PathLike, tracer: Tracer, meta: dict | None = None) -> Path:
    """Write ``tracer``'s events and metrics to ``path`` as JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "pid": os.getpid(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if meta:
        header.update(meta)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for event in tracer.events:
            fh.write(json.dumps(event) + "\n")
        fh.write(
            json.dumps({"type": "metrics", **tracer.registry.snapshot()}) + "\n"
        )
    return path


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL trace file into its records (blank lines skipped)."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


@dataclass
class StageStat:
    """Aggregated timing of one span name across a trace."""

    name: str
    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    cycles: int = 0
    rss_peak_delta_kb: int = 0


@dataclass
class TraceSummary:
    """Per-stage aggregation of one trace file."""

    stages: dict[str, StageStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    total_events: int = 0
    dropped_events: int = 0
    #: The Tracer's ``max_events`` cap when truncation happened (the
    #: ``trace.event_cap`` gauge, set on the first dropped event).
    event_cap: int | None = None

    def ordered(self) -> list[StageStat]:
        """Stages sorted by descending total wall time."""
        return sorted(self.stages.values(), key=lambda s: (-s.wall_s, s.name))


def summarize_trace(path: str | os.PathLike) -> TraceSummary:
    """Aggregate a trace file's spans (and metrics record) per stage.

    Span events contribute wall/cpu/cycles/RSS; when the final metrics
    record carries ``span.*`` timers for stages that have no events in
    this file (parallel campaigns meter stages worker-side), those
    timers fill in count and wall time so the table stays complete.
    """
    summary = TraceSummary()
    metrics: dict = {}
    for record in read_trace(path):
        kind = record.get("type")
        if kind == "span":
            summary.total_events += 1
            stat = summary.stages.setdefault(record["name"], StageStat(record["name"]))
            stat.count += 1
            stat.wall_s += record.get("wall_s", 0.0)
            stat.cpu_s += record.get("cpu_s", 0.0)
            stat.cycles += record.get("cycles", 0)
            stat.rss_peak_delta_kb += record.get("rss_peak_delta_kb", 0)
        elif kind == "metrics":
            metrics = record
    summary.counters = dict(metrics.get("counters", {}))
    summary.dropped_events = summary.counters.get("trace.dropped_events", 0)
    cap = metrics.get("gauges", {}).get("trace.event_cap")
    if cap is not None:
        summary.event_cap = int(cap)
    for name, stat in metrics.get("timers", {}).items():
        if not name.startswith("span."):
            continue
        stage = name[len("span.") :]
        existing = summary.stages.get(stage)
        if existing is None:
            summary.stages[stage] = StageStat(
                stage, count=stat["count"], wall_s=stat["total_s"]
            )
        elif stat["count"] > existing.count:
            # The registry timer merges worker-side observations on top
            # of this file's span events (a superset), so it wins when
            # it has seen more calls — e.g. a traced parallel campaign
            # whose stage spans ran inside worker processes.
            existing.count = stat["count"]
            existing.wall_s = stat["total_s"]
    for name, value in summary.counters.items():
        if name.startswith("cycles."):
            stage = name[len("cycles.") :]
            if stage in summary.stages and summary.stages[stage].cycles < value:
                summary.stages[stage].cycles = value
    return summary


def render_summary(summary: TraceSummary) -> str:
    """Render the stage-time table ``repro trace summarize`` prints."""
    from repro.perfmodel.energy import cycles_to_seconds

    headers = ["stage", "calls", "wall s", "cpu s", "modelled s", "cycles"]
    rows = []
    for stat in summary.ordered():
        rows.append(
            [
                stat.name,
                str(stat.count),
                f"{stat.wall_s:.4f}",
                f"{stat.cpu_s:.4f}",
                f"{cycles_to_seconds(stat.cycles):.4f}" if stat.cycles else "-",
                str(stat.cycles) if stat.cycles else "-",
            ]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append(
        f"{summary.total_events} span event(s)"
        + (f", {summary.dropped_events} dropped" if summary.dropped_events else "")
    )
    if summary.dropped_events:
        cap = (
            f"its {summary.event_cap}-event cap"
            if summary.event_cap is not None
            else "its event cap"
        )
        lines.append(
            f"WARNING: trace buffer truncated — {summary.dropped_events} span "
            f"event(s) dropped after the tracer hit {cap}; stage totals above "
            f"remain exact (registry timers), but the span list is incomplete. "
            f"Raise Tracer(max_events=...) to capture everything."
        )
    fanout_lines = _render_fanout(summary)
    if fanout_lines:
        lines.append("")
        lines.extend(fanout_lines)
    interesting = {
        name: value
        for name, value in summary.counters.items()
        # Per-boundary fan-out counters feed the amortization table
        # above; repeating them per-counter would drown the section.
        if not name.startswith(("cycles.", "trace.", "campaign.fanout.b"))
    }
    if interesting:
        lines.append("counters:")
        for name in sorted(interesting):
            lines.append(f"  {name} = {interesting[name]}")
    return "\n".join(lines)


def _render_fanout(summary: TraceSummary) -> list[str]:
    """The boundary fan-out amortization table, when a trace has one.

    Built entirely from the existing schema: ``fanout.suffix.<point>``
    stage timers (one span per member suffix, worker-side timers merge
    through the metrics record like every other stage) and the
    ``campaign.fanout.<point>.*`` counters.  A point is named
    ``b<frame>`` at the top of a frame and ``b<frame>.<phase>`` inside
    it; every fan-out gets its own row, in run order.
    """
    prefix = "fanout.suffix."
    rows = []
    for name, stat in summary.stages.items():
        if not name.startswith(prefix):
            continue
        point = name[len(prefix) :]
        members = summary.counters.get(f"campaign.fanout.{point}.members", stat.count)
        saved = summary.counters.get(f"campaign.fanout.{point}.restores_saved", 0)
        rows.append((_point_order(point), point, members, saved, stat.wall_s))
    if not rows:
        return []
    lines = ["boundary fan-out (restore amortization per group):"]
    for _, point, members, saved, wall_s in sorted(rows):
        lines.append(
            f"  {point}: {members} member(s), {saved} restore(s) saved, "
            f"suffix {wall_s:.4f}s"
        )
    return lines


def _point_order(point: str) -> tuple[int, str]:
    """Sort key of a restore-point name: frame number, then phase.

    The phases sort by name in run order ("" < "match" < "warp").  A name
    without a frame number sorts last rather than being dropped.
    """
    frame, _, phase = point.partition(".")
    number = frame[1:]
    return (int(number), phase) if frame[:1] == "b" and number.isdigit() else (2**63, point)
