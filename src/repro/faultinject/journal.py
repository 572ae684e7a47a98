"""Durable campaign checkpoint journal: crash-safe, resumable campaigns.

Large campaigns (thousands of injections per cell) must not lose hours
of completed work to one crashed worker, an OOM kill, or a power cut.
The journal is a schema-versioned JSONL file the campaign engine
appends to as chunks complete:

* line 1 — a ``header`` record: schema version and a fingerprint of
  every config field that affects results (plus the ``stratification``
  — dead mass and strata — of an adaptive stratified campaign), so a
  resume can detect config drift;
* then one ``chunk`` record per completed injection chunk, carrying its
  sampling ``round``, the campaign-global plan ``indices`` it ran and
  their fully serialized :class:`InjectionResult` list, plus a CRC32
  over indices and results.  Every append is flushed **and fsync'd**,
  so a record that made it into the file survives the process.

``repro campaign --resume PATH`` (and ``run_campaign(...,
journal_path=..., resume=True)``) re-plans the campaign and executes
only the plan indices not yet journaled — bit-identical to an
uninterrupted run, because every per-run RNG derives from ``(seed,
index)`` alone and results never depend on how plans were grouped, so
the resume may even use another worker count.

A torn or corrupt record (truncated line, or a line whose CRC does not
match — the write raced the crash) is detected on load and
**discarded**; its indices simply re-run.  Payload arrays (SDC outputs)
round-trip through base64 with dtype and shape, so restored corrupted
outputs are byte-identical to freshly computed ones.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.faultinject.injector import InjectionPlan, InjectionRecord
from repro.faultinject.monitor import InjectionResult
from repro.faultinject.outcomes import CrashKind, HangKind, Outcome
from repro.faultinject.registers import FlipEffect, RegKind, Role
from repro.forensics.divergence import DivergenceRecord
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.campaign import CampaignConfig

#: Bump when a record's shape changes incompatibly; loaders reject
#: journals from other schema versions rather than misreading them.
#: v2: header carries either contiguous index bounds or boundary
#: ``groups`` (group-granularity checkpointing), and the fingerprint
#: gained the boundary-batching flag.
#: v3: stratified campaigns (see :mod:`repro.faultinject.sampling`)
#: checkpoint at **round** granularity — the header carries the
#: ``stratification`` grid instead of a dispatch layout, followed by one
#: ``round`` record per completed sampling round — and the fingerprint
#: gained ``sampling`` (plus the stratified knobs when active), so a
#: journal written in one sampling mode cannot be resumed in the other.
#: v4: one execution path — the header carries ``groups`` or
#: ``stratification`` only, and the fingerprint lost the fast-forward
#: and boundary-batching flags.  Stratified journals written before
#: the fire-log strata carry ``strata`` in their fingerprint and are
#: refused by the fingerprint check.
#: v5: one record type — every ``chunk`` record carries its ``round``
#: and global plan ``indices`` (both modes), and the header no longer
#: records dispatch ``groups``: a resume re-plans and skips journaled
#: indices.
JOURNAL_SCHEMA_VERSION = 5

#: Test/CI hook: abort the campaign after this many journal appends, to
#: exercise the interrupt->resume path deterministically.
ABORT_AFTER_ENV = "REPRO_JOURNAL_ABORT_AFTER"


class JournalError(ValueError):
    """The journal file cannot be used (bad schema, config mismatch)."""


class CampaignInterrupted(RuntimeError):
    """The campaign stopped early on purpose (the abort-after test hook).

    Everything journaled so far is durable; re-run with ``--resume`` to
    finish the remainder.
    """

    def __init__(self, journal_path: Path, chunks_done: int) -> None:
        self.journal_path = Path(journal_path)
        self.chunks_done = chunks_done
        super().__init__(
            f"campaign interrupted after {chunks_done} journaled chunk(s); "
            f"resume with --resume {journal_path}"
        )


# ---------------------------------------------------------------------------
# Result (de)serialization
# ---------------------------------------------------------------------------


def _plan_to_dict(plan: InjectionPlan) -> dict:
    return {
        "target_cycle": plan.target_cycle,
        "kind": plan.kind.value,
        "register": plan.register,
        "bit": plan.bit,
    }


def _plan_from_dict(data: dict) -> InjectionPlan:
    return InjectionPlan(
        target_cycle=data["target_cycle"],
        kind=RegKind(data["kind"]),
        register=data["register"],
        bit=data["bit"],
    )


def _array_to_dict(array: np.ndarray) -> dict:
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _array_from_dict(data: dict) -> np.ndarray:
    raw = base64.b64decode(data["data"])
    return np.frombuffer(raw, dtype=np.dtype(data["dtype"])).reshape(data["shape"]).copy()


def serialize_result(result: InjectionResult) -> dict:
    """One injection result as a JSON-serializable dict (lossless)."""
    record = result.record
    return {
        "plan": _plan_to_dict(result.plan),
        "record": {
            "fired": record.fired,
            "fired_cycle": record.fired_cycle,
            "site": record.site,
            "binding_name": record.binding_name,
            "role": record.role.value if record.role is not None else None,
            "effect": record.effect.value if record.effect is not None else None,
            "in_study": record.in_study,
        },
        "outcome": result.outcome.value,
        "crash_kind": result.crash_kind.value if result.crash_kind is not None else None,
        "hang_kind": result.hang_kind.value if result.hang_kind is not None else None,
        "cycles": result.cycles,
        "output": _array_to_dict(result.output) if result.output is not None else None,
        "divergence": result.divergence.to_dict() if result.divergence is not None else None,
    }


def deserialize_result(data: dict) -> InjectionResult:
    """Rebuild an :class:`InjectionResult` from :func:`serialize_result`."""
    plan = _plan_from_dict(data["plan"])
    rec = data["record"]
    record = InjectionRecord(
        plan=plan,
        fired=rec["fired"],
        fired_cycle=rec["fired_cycle"],
        site=rec["site"],
        binding_name=rec["binding_name"],
        role=Role(rec["role"]) if rec["role"] is not None else None,
        effect=FlipEffect(rec["effect"]) if rec["effect"] is not None else None,
        in_study=rec["in_study"],
    )
    return InjectionResult(
        plan=plan,
        record=record,
        outcome=Outcome(data["outcome"]),
        crash_kind=CrashKind(data["crash_kind"]) if data["crash_kind"] is not None else None,
        hang_kind=HangKind(data["hang_kind"]) if data["hang_kind"] is not None else None,
        output=_array_from_dict(data["output"]) if data["output"] is not None else None,
        cycles=data["cycles"],
        divergence=(
            DivergenceRecord.from_dict(data["divergence"])
            if data.get("divergence") is not None
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Config fingerprinting
# ---------------------------------------------------------------------------


def config_fingerprint(config: "CampaignConfig") -> dict:
    """Every config field that affects campaign *results*.

    Execution knobs (workers, retry policy) are deliberately excluded —
    the engine guarantees they never change results — but the watchdog
    soft deadline is included because it can reclassify a stalled run.
    ``probe`` is also included: probing never changes outcomes, but it
    does determine whether results carry divergence records, and a
    resume that silently mixed probed and unprobed chunks would leave a
    campaign whose attribution tables cover an arbitrary subset.
    A resume whose fingerprint differs from the journal's header is
    refused: mixing results from two different campaigns would be
    silently wrong.
    """
    watchdog = config.watchdog
    return {
        "n_injections": config.n_injections,
        "kind": config.kind.value,
        "seed": config.seed,
        "hang_factor": config.hang_factor,
        "site_filter": config.site_filter,
        "keep_sdc_outputs": config.keep_sdc_outputs,
        "watchdog_soft_deadline_s": watchdog.soft_deadline_s if watchdog else None,
        "probe": config.probe,
        # Sampling mode decides which plans exist at all, so uniform
        # and stratified journals are different campaigns by
        # construction.  The stratified knobs join only in
        # stratified mode: changing them must invalidate stratified
        # journals without perturbing every uniform fingerprint.
        "sampling": getattr(config, "sampling", "uniform"),
        **(
            {
                "stratified": {
                    "ci_width": config.ci_width,
                    "round_size": config.round_size,
                    "max_injections": config.max_injections,
                }
            }
            if getattr(config, "sampling", "uniform") == "stratified"
            else {}
        ),
    }


def require_same_campaign(
    fingerprint: dict, config: "CampaignConfig", path: Path
) -> None:
    """Reject a resume whose journal a different campaign configuration wrote.

    Mode mixing is checked first, with a targeted error: the generic
    "different configuration" message would bury the one field that
    matters.
    """
    journal_mode = fingerprint.get("sampling", "uniform")
    config_mode = getattr(config, "sampling", "uniform")
    if journal_mode != config_mode:
        raise JournalError(
            f"journal {path} was written by a sampling={journal_mode!r} "
            f"campaign and cannot be resumed with sampling={config_mode!r}: "
            f"the modes draw different plans, so their results cannot be mixed"
        )
    expected = config_fingerprint(config)
    if fingerprint != expected:
        raise JournalError(
            f"journal {path} was written by a different campaign "
            f"configuration (journal {fingerprint} vs requested "
            f"{expected}); refusing to mix results"
        )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _abort_after_from_env() -> int | None:
    raw = os.environ.get(ABORT_AFTER_ENV)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ABORT_AFTER_ENV} must be an integer chunk count, got {raw!r}"
        ) from None
    return value if value >= 1 else None


class CampaignJournal:
    """Append-only writer for one campaign's checkpoint journal.

    Create with :meth:`create` for a fresh campaign (writes the header)
    or :meth:`append_to` when resuming (the header already exists).
    Every :meth:`append_chunk` writes one complete JSON line, flushes,
    and fsyncs before returning — once it returns, that chunk survives
    any crash of this process.
    """

    def __init__(self, path: Path, handle, chunks_written: int = 0) -> None:
        self.path = Path(path)
        self._handle = handle
        self.chunks_written = chunks_written
        self._abort_after = _abort_after_from_env()

    @classmethod
    def create(
        cls, path: Path, config: "CampaignConfig", stratification: dict | None = None
    ) -> "CampaignJournal":
        """Start a fresh journal at ``path`` (truncating any old file).

        A stratified campaign passes its ``stratification`` for the
        header, so a resume can refuse a drifted golden run.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "type": "header",
            "schema": JOURNAL_SCHEMA_VERSION,
            "fingerprint": config_fingerprint(config),
        }
        if stratification is not None:
            header["stratification"] = stratification
        journal = cls(path, open(path, "w", encoding="utf-8"))
        journal._write_line(_dumps(header))
        return journal

    @classmethod
    def append_to(cls, path: Path, chunks_written: int) -> "CampaignJournal":
        """Reopen ``path`` for appending after :func:`load_journal`.

        The loader already discarded any torn trailing record *from its
        view*; the file itself may still end with the torn bytes, so the
        writer first truncates to the last complete line boundary.
        """
        path = Path(path)
        _truncate_to_complete_lines(path)
        handle = open(path, "a", encoding="utf-8")
        return cls(path, handle, chunks_written=chunks_written)

    def _write_line(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_chunk(
        self, round_index: int, indices: list[int], results: list[InjectionResult]
    ) -> None:
        """Durably record one completed chunk: plan ``indices`` and their results.

        The results are JSON-encoded once: the same text is the CRC
        input and the record's last field, so the line is byte for byte
        what encoding the whole record would give.
        """
        results_json = _dumps([serialize_result(result) for result in results])
        head = _dumps(
            {
                "type": "chunk",
                "round": round_index,
                "indices": indices,
                "n_results": len(results),
                "crc32": _chunk_crc(_dumps(indices), results_json),
            }
        )
        self._write_line(f'{head[:-1]},"results":{results_json}}}')
        self.chunks_written += 1
        observe_events.emit(
            "journal_checkpoint",
            unit="chunk",
            round=round_index,
            n_results=len(results),
            written=self.chunks_written,
        )
        if self._abort_after is not None and self.chunks_written >= self._abort_after:
            self.close()
            raise CampaignInterrupted(self.path, self.chunks_written)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _dumps(value) -> str:
    """Compact JSON, the journal's one encoding."""
    return json.dumps(value, separators=(",", ":"))


def _chunk_crc(indices_json: str, results_json: str) -> int:
    """CRC-32 of a chunk's ``[indices, results]``, from their compact JSON."""
    return zlib.crc32(f"[{indices_json},{results_json}]".encode("utf-8"))


def _truncate_to_complete_lines(path: Path) -> None:
    """Drop any trailing bytes after the last newline (a torn record)."""
    data = path.read_bytes()
    if data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1  # 0 when no newline at all
    with open(path, "r+b") as handle:
        handle.truncate(keep)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass
class JournalState:
    """Everything recovered from an existing journal file."""

    path: Path
    fingerprint: dict
    #: The stratification (see ``Stratification.to_dict``) for
    #: stratified journals; None for uniform ones.
    stratification: dict | None = None
    #: Journaled results, keyed by campaign-global plan index.
    results: dict[int, InjectionResult] = field(default_factory=dict)
    #: Intact chunk records read.
    chunks: int = 0
    #: True when a torn or corrupt record was found and dropped.
    discarded_partial: bool = False


def load_journal(path: Path) -> JournalState:
    """Read a journal, validating schema and integrity.

    Raises :class:`JournalError` for a missing/empty file, an unreadable
    or wrong-schema header, or a plan index journaled twice with
    different results.  A torn or CRC-failing record anywhere in the
    file — at the end, the expected shape of a crash — is discarded and
    flagged via ``discarded_partial``; only its own indices re-run.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"journal {path} does not exist")
    raw_lines = path.read_bytes().split(b"\n")
    # A well-formed file ends with "\n": the final split element is "".
    # Anything non-empty there is a torn trailing record.
    torn_tail = raw_lines[-1] != b""
    lines = [line for line in raw_lines if line]
    if not lines:
        raise JournalError(f"journal {path} is empty")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"journal {path}: unreadable header: {exc}") from None
    if header.get("type") != "header":
        raise JournalError(f"journal {path}: first record is not a header")
    if header.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal {path}: schema {header.get('schema')!r} is not "
            f"supported (expected {JOURNAL_SCHEMA_VERSION})"
        )
    state = JournalState(
        path=path,
        fingerprint=header["fingerprint"],
        stratification=header.get("stratification"),
        discarded_partial=torn_tail,
    )
    payloads: dict[int, dict] = {}
    for line in lines[1:]:
        record = _parse_chunk_record(line)
        if record is None:
            # Torn or corrupt: drop it and keep scanning — records are
            # independent, and only this one's indices re-run.
            state.discarded_partial = True
            continue
        state.chunks += 1
        for index, item, result in record:
            if payloads.setdefault(index, item) != item:
                raise JournalError(
                    f"journal {path}: plan index {index} is journaled twice "
                    f"with different results"
                )
            state.results[index] = result
    return state


def _parse_chunk_record(
    line: bytes,
) -> list[tuple[int, dict, InjectionResult]] | None:
    """Parse one chunk line into ``(index, payload, result)`` triples;
    None for anything torn or inconsistent."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or record.get("type") != "chunk":
        return None
    indices, payload = record.get("indices"), record.get("results")
    if not (
        isinstance(indices, list)
        and isinstance(payload, list)
        and len(indices) == len(payload) == record.get("n_results")
        and all(type(index) is int and index >= 0 for index in indices)
        and _chunk_crc(_dumps(indices), _dumps(payload)) == record.get("crc32")
    ):
        return None
    try:
        return [
            (index, item, deserialize_result(item)) for index, item in zip(indices, payload)
        ]
    except (KeyError, ValueError, TypeError):
        return None
