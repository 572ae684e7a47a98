"""Crash-safe live status snapshots of a running campaign.

A :class:`StatusWriter` subscribes to the campaign event bus and folds
every event into one JSON payload — progress, rate and ETA, running
outcome rates with Wilson 95% CIs, retry/degrade/fast-forward/fan-out
counters, and per-cell CI widths in stratified mode.  When constructed
with a path it rewrites the file on every event via the atomic
write-temp-then-``os.replace`` protocol, so a reader (or a post-crash
investigator) always sees a complete, parseable JSON document — never
a torn write, even when the campaign process is SIGKILL'd mid-update
(pinned by ``tests/faultinject/test_kill_resume.py``).

``repro watch <status.json>`` tails the file live;
:func:`validate_status` is the schema gate CI runs against ``/status``
responses.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

from repro.faultinject.outcomes import wilson_interval
from repro.observe.events import CampaignEvent

#: Bump when a required field changes shape or meaning.
STATUS_SCHEMA_VERSION = 1

#: Outcome classes tracked in the running tally — the same keys as the
#: forensics report's ``OUTCOME_FIELDS`` (``Outcome.value`` for mask).
OUTCOME_KEYS = ("mask", "sdc", "crash", "hang")

#: Counter names maintained from event kinds.
COUNTER_KEYS = (
    "retries",
    "degrades",
    "watchdog_hangs",
    "golden_tails",
    "journal_checkpoints",
    "notes",
)

#: Event kinds that carry a completed unit of work (``done`` totals and
#: an ``outcomes`` tally in their payload).
_PROGRESS_KINDS = ("chunk_done", "round_done")


class StatusWriter:
    """Event-bus subscriber maintaining (and atomically writing) status.

    ``path=None`` keeps the snapshot in memory only — the HTTP server
    uses that mode when ``--serve`` is given without ``--status``.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self.started = clock()
        self.state = "starting"
        self.campaign: dict = {}
        self.done = 0
        self.total: int | None = None
        self.outcomes = {key: 0 for key in OUTCOME_KEYS}
        self.counters = {key: 0 for key in COUNTER_KEYS}
        self.resume: dict | None = None
        self.stratified: dict | None = None
        self.events_seen = 0
        self.writes = 0
        self.last_event: dict = {}

    # ------------------------------------------------------------------
    # Event folding
    # ------------------------------------------------------------------
    def __call__(self, event: CampaignEvent) -> None:
        self.events_seen += 1
        self.last_event = {"seq": event.seq, "kind": event.kind}
        payload = event.payload
        kind = event.kind
        if kind == "campaign_start":
            self.state = "running"
            self.campaign = dict(payload)
            total = payload.get("total")
            self.total = int(total) if isinstance(total, int) else None
            self.started = self.clock()
        elif kind in _PROGRESS_KINDS:
            done = payload.get("done")
            if isinstance(done, int):
                self.done = done
            if kind == "round_done":
                # Rounds carry the engine's cumulative tally (they are
                # also the only progress signal during journal replay),
                # so assignment both reconstructs resumed state and
                # corrects any chunk-level increments in between.
                totals = payload.get("outcomes_total")
                if isinstance(totals, dict):
                    for key in OUTCOME_KEYS:
                        self.outcomes[key] = int(totals.get(key, 0))
                self._fold_round(payload)
            else:
                outcomes = payload.get("outcomes")
                if isinstance(outcomes, dict):
                    for key in OUTCOME_KEYS:
                        self.outcomes[key] += int(outcomes.get(key, 0))
        elif kind == "retry":
            self.counters["retries"] += 1
        elif kind == "degrade":
            self.counters["degrades"] += 1
        elif kind == "watchdog_hang":
            self.counters["watchdog_hangs"] += int(payload.get("count", 1))
        elif kind == "golden_tail":
            self.counters["golden_tails"] += 1
        elif kind == "journal_checkpoint":
            self.counters["journal_checkpoints"] += 1
        elif kind == "note":
            self.counters["notes"] += 1
        elif kind == "journal_resume":
            self.resume = dict(payload)
        elif kind == "stratum_converged":
            if self.stratified is not None:
                self.stratified["cells_converged"] = (
                    int(self.stratified.get("cells_converged", 0)) + 1
                )
        elif kind == "campaign_finish":
            self.state = "finished"
            outcomes = payload.get("outcomes")
            if isinstance(outcomes, dict):
                # The engine's final tally is authoritative (it covers
                # journal-replayed work a mid-campaign subscriber missed).
                for key in OUTCOME_KEYS:
                    self.outcomes[key] = int(outcomes.get(key, 0))
            total = payload.get("total")
            if isinstance(total, int):
                self.done = total
        elif kind == "interrupt":
            self.state = "interrupted"
        self.write()

    def _fold_round(self, payload: dict) -> None:
        stratified = self.stratified if self.stratified is not None else {}
        for key in ("round", "cells_total", "cells_converged", "max_ci_width"):
            if key in payload:
                stratified[key] = payload[key]
        cells = payload.get("cell_ci_widths")
        if isinstance(cells, list):
            stratified["cell_ci_widths"] = cells
        self.stratified = stratified

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The current status payload (schema ``STATUS_SCHEMA_VERSION``)."""
        now = self.clock()
        elapsed = max(now - self.started, 1e-9)
        rate = self.done / elapsed if self.done else 0.0
        eta_s: float | None = None
        if self.total is not None and rate > 0:
            eta_s = max(0.0, (self.total - self.done) / rate)
        total_classified = sum(self.outcomes.values())
        rates = {}
        for key in OUTCOME_KEYS:
            count = self.outcomes[key]
            low, high = wilson_interval(count, total_classified)
            rates[key] = {
                "count": count,
                "rate": round(count / total_classified, 6) if total_classified else 0.0,
                "ci_low": round(low, 6),
                "ci_high": round(high, 6),
            }
        payload = {
            "schema": STATUS_SCHEMA_VERSION,
            "state": self.state,
            "campaign": self.campaign,
            "progress": {
                "done": self.done,
                "total": self.total,
                "fraction": (
                    round(self.done / self.total, 6)
                    if self.total
                    else None
                ),
            },
            "elapsed_s": round(elapsed, 3),
            "rate_per_s": round(rate, 3),
            "eta_s": round(eta_s, 3) if eta_s is not None else None,
            "outcomes": {
                "total": total_classified,
                "rates": rates,
            },
            "counters": dict(self.counters),
            "resume": self.resume,
            "stratified": self.stratified,
            "events_seen": self.events_seen,
            "last_event": self.last_event,
            "updated_unix": round(now, 3),
        }
        return payload

    # ------------------------------------------------------------------
    # Atomic persistence
    # ------------------------------------------------------------------
    def write(self) -> None:
        """Atomically replace the status file with the current snapshot."""
        if self.path is None:
            return
        write_status(self.path, self.snapshot())
        self.writes += 1

    def mark(self, state: str) -> None:
        """Force a terminal state (used by the observe session teardown)."""
        self.state = state
        self.write()


def write_status(path: str | os.PathLike, payload: dict) -> Path:
    """Write ``payload`` crash-safely: temp file, fsync, atomic rename.

    ``os.replace`` within one directory is atomic on POSIX, so any
    concurrent (or post-mortem) reader sees either the previous
    complete document or the new one — never a torn mix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    data = json.dumps(payload, sort_keys=True) + "\n"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_status(path: str | os.PathLike) -> dict:
    """Load one status snapshot (raises like ``json.loads`` / ``open``)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_status(payload: dict) -> list[str]:
    """Schema-check one status payload; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != STATUS_SCHEMA_VERSION:
        problems.append(
            f"schema {payload.get('schema')!r} != {STATUS_SCHEMA_VERSION}"
        )
    if payload.get("state") not in ("starting", "running", "finished", "interrupted"):
        problems.append(f"unknown state {payload.get('state')!r}")
    progress = payload.get("progress")
    if not isinstance(progress, dict):
        problems.append("missing progress object")
    else:
        done = progress.get("done")
        total = progress.get("total")
        if not isinstance(done, int) or done < 0:
            problems.append(f"progress.done {done!r} is not a non-negative int")
        if total is not None and (not isinstance(total, int) or total < 0):
            problems.append(f"progress.total {total!r} is not an int or null")
        if isinstance(done, int) and isinstance(total, int) and done > total:
            problems.append(f"progress.done {done} exceeds total {total}")
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, dict) or not isinstance(outcomes.get("rates"), dict):
        problems.append("missing outcomes.rates object")
    else:
        for key in OUTCOME_KEYS:
            entry = outcomes["rates"].get(key)
            if not isinstance(entry, dict):
                problems.append(f"outcomes.rates.{key} missing")
                continue
            rate = entry.get("rate")
            low, high = entry.get("ci_low"), entry.get("ci_high")
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                problems.append(f"outcomes.rates.{key}.rate {rate!r} out of [0,1]")
            if (
                not isinstance(low, (int, float))
                or not isinstance(high, (int, float))
                or not 0.0 <= low <= high <= 1.0
            ):
                problems.append(
                    f"outcomes.rates.{key} CI ({low!r}, {high!r}) is not ordered in [0,1]"
                )
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        problems.append("missing counters object")
    else:
        for key in COUNTER_KEYS:
            value = counters.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"counters.{key} {value!r} is not a non-negative int")
    for key in ("elapsed_s", "rate_per_s", "updated_unix"):
        if not isinstance(payload.get(key), (int, float)):
            problems.append(f"{key} {payload.get(key)!r} is not a number")
    return problems


def render_status(payload: dict) -> str:
    """Human-readable rendering of one snapshot (``repro watch``)."""
    progress = payload.get("progress", {})
    done = progress.get("done", 0)
    total = progress.get("total")
    campaign = payload.get("campaign", {})
    header = (
        f"[{payload.get('state', '?')}] "
        f"{campaign.get('mode', 'campaign')} {campaign.get('kind', '')}".rstrip()
    )
    lines = [header]
    bar = ""
    if total:
        fraction = min(1.0, done / total)
        filled = int(round(fraction * 30))
        bar = f" [{'#' * filled}{'.' * (30 - filled)}] {fraction:6.1%}"
    eta = payload.get("eta_s")
    eta_text = f", ETA {eta:.0f}s" if isinstance(eta, (int, float)) else ""
    lines.append(
        f"  progress: {done}/{total if total is not None else '?'}{bar} "
        f"({payload.get('rate_per_s', 0)}/s, elapsed {payload.get('elapsed_s', 0)}s"
        f"{eta_text})"
    )
    rates = payload.get("outcomes", {}).get("rates", {})
    for key in OUTCOME_KEYS:
        entry = rates.get(key)
        if not entry:
            continue
        lines.append(
            f"  {key:6s} {entry.get('count', 0):6d}  rate {entry.get('rate', 0.0):.4f}  "
            f"CI [{entry.get('ci_low', 0.0):.4f}, {entry.get('ci_high', 0.0):.4f}]"
        )
    counters = payload.get("counters", {})
    busy = {key: value for key, value in counters.items() if value}
    if busy:
        lines.append(
            "  counters: "
            + ", ".join(f"{key}={busy[key]}" for key in sorted(busy))
        )
    stratified = payload.get("stratified")
    if stratified:
        lines.append(
            f"  stratified: round {stratified.get('round', '?')}, "
            f"{stratified.get('cells_converged', 0)}/{stratified.get('cells_total', '?')} "
            f"cells converged, max CI width {stratified.get('max_ci_width', '?')}"
        )
    resume = payload.get("resume")
    if resume:
        lines.append(
            f"  resumed: {resume.get('replayed', '?')} journaled unit(s), "
            f"{resume.get('injections', '?')} injection(s) replayed"
        )
    return "\n".join(lines)
