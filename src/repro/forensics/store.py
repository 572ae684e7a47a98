"""Content-addressed campaign result store: sharded segments + SQL index.

Every campaign worth keeping becomes a fingerprinted, queryable
artifact: outcome counts, register/bit histograms, per-injection
``(register, bit, outcome, divergence)`` tuples, SDC quality
distributions and divergence attributions, stored under a
**content-addressed campaign id** — the SHA-256 of the record's
canonical JSON — so identical campaigns collapse to one entry and a
record can never drift from its id unnoticed.

On-disk layout (v2)::

    <root>/manifest.jsonl        append-only segment manifest (CRC'd lines)
    <root>/segments/seg-NNNNNN.jsonl
                                 bounded record segments, one CRC'd record
                                 line each
    <root>/index.sqlite          derived SQLite index (WAL) down to
                                 per-injection rows; rebuildable from the
                                 segments at any time

The record line format follows the checkpoint journal's conventions
(schema version, ``zlib.crc32`` over the canonical payload, fsync'd
appends).  Mid-file corruption is reported, never silently skipped; a
*torn tail* — the final line of the live segment truncated by a crash
mid-``put`` — is the one recoverable case: it was never acknowledged,
so readers ignore it and writers truncate it before appending, exactly
like the journal's torn-record handling.

The retired v1 layout (a single ``campaigns.jsonl`` log) is refused on
open; :func:`migrate_store` (``repro store migrate``) is its only
reader and converts it in place, losslessly and id-stably.

Writers serialize through an advisory ``flock`` on ``<root>/.lock``
(where the platform provides one), and each put re-syncs any segment
bytes another writer appended before trusting its own offsets, so
concurrent processes may share a store.  Readers never take the lock.

The SQLite index is **derived state**: every byte of truth lives in the
segments, and a missing, corrupt, or stale index is rebuilt (or
incrementally re-synced from the un-indexed segment tails) on open.
``repro store rebuild`` forces the full rebuild.

Reports and regression diffs over stored campaigns live in
:mod:`repro.forensics.report`; cross-campaign slicing queries in
:mod:`repro.forensics.query` (CLI: ``repro report``).  See
``docs/store.md`` for the full layout and schema reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

try:  # advisory writer lock; POSIX-only, degrades to documented single-writer
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from repro.analysis.reporting import counts_to_dict
from repro.faultinject.campaign import CampaignResult
from repro.faultinject.journal import config_fingerprint
from repro.forensics.divergence import NONE_KEY, summarize_divergence

#: Bump when the *record* shape changes incompatibly.  Records are the
#: content-addressed unit: their schema (and therefore their ids) is
#: independent of the on-disk layout version below.
STORE_SCHEMA_VERSION = 1

#: On-disk layout generation, stamped in the manifest header.
LAYOUT_V2 = 2

#: The retired v1 layout's single record log; only migration reads it.
V1_LOG = "campaigns.jsonl"

#: Hex digits of the SHA-256 kept as the campaign id.
ID_LENGTH = 16

#: Segment roll threshold; a segment that has reached this many bytes is
#: sealed and the next put opens a fresh one.  Override per store via
#: the constructor (tests) or REPRO_STORE_SEGMENT_BYTES.
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

SEGMENT_BYTES_ENV = "REPRO_STORE_SEGMENT_BYTES"

#: SQLite schema generation; bumping forces a rebuild on open.
DB_SCHEMA_VERSION = 1

#: Sentinel stage for per-injection rows that carried no divergence
#: record at all (unprobed runs) — distinct from :data:`NONE_KEY`,
#: which means "probed, never diverged".
UNPROBED_KEY = "unprobed"


class StoreError(ValueError):
    """The store cannot be used (missing id, corrupt record, bad schema)."""


def _canonical_json(payload: Any) -> str:
    """The byte-stable JSON encoding ids and CRCs are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def campaign_id(record: dict) -> str:
    """Content-addressed id of one campaign record."""
    digest = hashlib.sha256(_canonical_json(record).encode("utf-8")).hexdigest()
    return digest[:ID_LENGTH]


def encode_record_line(record: dict, cid: str | None = None) -> tuple[str, str]:
    """``(cid, line)`` for one record in the shared CRC'd line format."""
    cid = cid or campaign_id(record)
    payload = _canonical_json(record)
    line = _canonical_json(
        {"id": cid, "crc32": zlib.crc32(payload.encode("utf-8")), "record": record}
    )
    return cid, line


def decode_record_line(line: str, where: str) -> tuple[str, dict]:
    """Parse and verify one record line; raises :class:`StoreError`.

    ``where`` names the file/line for error messages.  Both the CRC and
    the content address are checked, so a record can neither rot nor
    drift from its id unnoticed.
    """
    try:
        entry = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StoreError(f"store record at {where} is not JSON: {exc}") from None
    record = entry.get("record")
    cid = entry.get("id")
    if not isinstance(record, dict) or not isinstance(cid, str):
        raise StoreError(f"store record at {where} is malformed")
    payload = _canonical_json(record)
    if zlib.crc32(payload.encode("utf-8")) != entry.get("crc32"):
        raise StoreError(f"store record {cid} at {where} failed its CRC check")
    if campaign_id(record) != cid:
        raise StoreError(f"store record at {where} does not hash to its id {cid}")
    return cid, record


def build_record(
    campaign: CampaignResult,
    golden_output: np.ndarray | None = None,
    label: str | None = None,
) -> dict:
    """Fold one :class:`CampaignResult` into a storable record.

    ``golden_output``, when given, lets the record include the SDC
    quality distribution (relative L2 norm and Egregiousness Degree per
    retained corrupted output — paper Fig. 12).  ``label`` is a free
    human tag; it participates in the content address, so relabelling a
    campaign stores a distinct record.
    """
    injections = []
    for result in campaign.results:
        divergence = result.divergence
        injections.append(
            [
                int(result.plan.register),
                int(result.plan.bit),
                result.outcome.value,
                result.crash_kind.value if result.crash_kind is not None else "",
                1 if (result.record.fired and result.record.in_study) else 0,
                divergence.first_divergence or "" if divergence is not None else "",
                divergence.last_stage or "" if divergence is not None else "",
                divergence.diverged_bits if divergence is not None else -1,
            ]
        )

    sdc_quality = []
    if golden_output is not None:
        from repro.quality import compare_outputs

        for index, result in enumerate(campaign.results):
            if not result.is_sdc or result.output is None:
                continue
            quality = compare_outputs(golden_output, result.output)
            rel = quality.relative_l2_norm
            sdc_quality.append(
                {
                    "index": index,
                    # round() keeps the canonical JSON (and therefore the
                    # content address) stable across float formatting.
                    "relative_l2": round(rel, 6) if np.isfinite(rel) else None,
                    "ed": quality.egregious_degree,
                }
            )

    record = {
        "schema": STORE_SCHEMA_VERSION,
        "label": label,
        "fingerprint": config_fingerprint(campaign.config),
        "counts": counts_to_dict(campaign.counts),
        "fired_counts": counts_to_dict(campaign.fired_counts()),
        "register_histogram": campaign.register_histogram.tolist(),
        "bit_histogram": campaign.bit_histogram.tolist(),
        "injections": injections,
        "divergence": summarize_divergence(campaign.results),
        "sdc_quality": sdc_quality,
    }
    # Only stratified campaigns carry a sampling block, so uniform
    # records keep exactly their previous shape — and therefore their
    # previous content-addressed ids.
    if campaign.sampling is not None:
        record["sampling"] = campaign.sampling.to_dict()
    return record


# ---------------------------------------------------------------------------
# Per-injection row normalization (shared by the SQL index and the
# brute-force scan path, so both query engines see identical values)
# ---------------------------------------------------------------------------

#: Bits per octet column; 64 bits fold into 8 octets, 32 registers into
#: 4 register classes (matching the report heatmaps).
OCTET = 8
REGISTERS_PER_CLASS = 8


def injection_view(row: list) -> dict:
    """Normalized view of one stored ``injections`` row.

    ``first_divergence`` / ``last_stage`` are ``UNPROBED_KEY`` for rows
    without a divergence record, :data:`NONE_KEY` for probed rows that
    never diverged / completed, and the stage name otherwise — one
    vocabulary for both the SQL index and the brute-force scanner.
    """
    register, bit = int(row[0]), int(row[1])
    probed = int(row[7]) >= 0
    return {
        "register": register,
        "bit": bit,
        "register_class": register // REGISTERS_PER_CLASS,
        "bit_octet": bit // OCTET,
        "outcome": row[2],
        "crash_kind": row[3] or "",
        "fired": int(row[4]),
        "first_divergence": (row[5] or NONE_KEY) if probed else UNPROBED_KEY,
        "last_stage": (row[6] or NONE_KEY) if probed else UNPROBED_KEY,
        "diverged_bits": int(row[7]),
        "probed": 1 if probed else 0,
    }


def record_summary(record: dict) -> dict:
    """Per-campaign summary row (index payload, ``report list``)."""
    fingerprint = record["fingerprint"]
    counts = record["counts"]
    return {
        "label": record.get("label"),
        "kind": fingerprint["kind"],
        "n_injections": fingerprint["n_injections"],
        "seed": fingerprint["seed"],
        "probe": bool(fingerprint.get("probe")),
        "sampling": "stratified" if record.get("sampling") else "uniform",
        "total": counts["total"],
        "masked": counts["masked"],
        "sdc": counts["sdc"],
        "crash_segv": counts["crash_segv"],
        "crash_abort": counts["crash_abort"],
        "hang": counts["hang"],
    }


# ---------------------------------------------------------------------------
# Shared line-file helpers
# ---------------------------------------------------------------------------


def _fsync_append(path: Path, line: str) -> tuple[int, int]:
    """Append ``line`` + newline, fsync'd; returns ``(offset, length)``."""
    data = (line + "\n").encode("utf-8")
    with open(path, "ab") as handle:
        offset = handle.tell()
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return offset, len(data)


def _fsync_write(path: Path, text: str) -> None:
    """Write a whole file, fsync'd before returning."""
    with open(path, "wb") as handle:
        handle.write(text.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())


def _scan_lines(
    path: Path, start: int = 0
) -> Iterator[tuple[int, int, str]]:
    """Yield ``(offset, length, text)`` per complete line from ``start``.

    A trailing fragment without a newline is *not* yielded — that is the
    torn-tail case the caller decides how to handle (its offset is where
    the last complete line ended).
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        offset = start
        for raw in handle:
            if not raw.endswith(b"\n"):
                return  # torn tail: never acknowledged, never yielded
            yield offset, len(raw), raw[:-1].decode("utf-8")
            offset += len(raw)


def _manifest_line(payload: dict) -> str:
    """One CRC'd manifest line (header or segment entry)."""
    return _canonical_json(
        {"crc32": zlib.crc32(_canonical_json(payload).encode("utf-8")), "entry": payload}
    )


def _segment_name(seq: int) -> str:
    return f"seg-{seq:06d}.jsonl"


def _segment_limit(segment_max_bytes: int | None) -> int:
    """The segment roll threshold: argument, else environment, else default."""
    if segment_max_bytes is None:
        raw = os.environ.get(SEGMENT_BYTES_ENV)
        segment_max_bytes = int(raw) if raw else DEFAULT_SEGMENT_MAX_BYTES
    if segment_max_bytes < 1:
        raise StoreError(f"segment_max_bytes must be >= 1, got {segment_max_bytes}")
    return segment_max_bytes


@contextmanager
def _store_write_lock(root: Path) -> Iterator[None]:
    """Advisory exclusive lock serializing writers on one store root.

    Protects the append + index sequence against concurrent processes
    (two unserialized O_APPEND writers would both record the same
    ``tell()`` offset while the kernel interleaves their writes).
    Readers never take the lock; on platforms without ``fcntl`` the
    store falls back to the documented single-writer assumption.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    root.mkdir(parents=True, exist_ok=True)
    with open(root / ".lock", "ab") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class MigrationReport:
    """What ``migrate_store`` did, for logs and assertions."""

    root: Path
    ids: list[str] = field(default_factory=list)
    segments: int = 0
    backups: list[str] = field(default_factory=list)

    @property
    def records(self) -> int:
        return len(self.ids)


class CampaignStore:
    """One store directory of campaign records.

    A directory still holding the retired v1 log (``campaigns.jsonl``
    without a ``manifest.jsonl``) is refused with a pointer to
    ``repro store migrate``; the manifest wins when both exist (a crash
    after migration wrote it but before the v1 files were retired).
    """

    def __init__(
        self, root: Path | str, segment_max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.jsonl"
        self.segments_dir = self.root / "segments"
        self.db_path = self.root / "index.sqlite"
        if (self.root / V1_LOG).exists() and not self.manifest_path.exists():
            raise StoreError(
                f"store {self.root} uses the retired v1 layout ({V1_LOG}); "
                f"run `repro store migrate {self.root}` to convert it"
            )
        self.segment_max_bytes = _segment_limit(segment_max_bytes)
        self._conn: sqlite3.Connection | None = None
        self._repaired = False

    def close(self) -> None:
        """Release the SQLite handle (stores are also usable ad hoc)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- writing ----------------------------------------------------------

    def put(self, record: dict) -> str:
        """Store one record; returns its campaign id (idempotent)."""
        if record.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"record schema {record.get('schema')!r} is not supported "
                f"(expected {STORE_SCHEMA_VERSION})"
            )
        cid = campaign_id(record)
        with _store_write_lock(self.root):
            conn = self._db(repair=True)
            if self._indexed(conn, cid):
                return cid
            segment = self._live_segment(conn)
            path = self.segments_dir / segment
            # Another process may have appended to the live segment since
            # our open-time sync (or crashed mid-put there): index that
            # tail before trusting our own offsets, or the indexed_bytes
            # update below would mark the foreign record as covered
            # without rows.
            done = conn.execute(
                "SELECT indexed_bytes FROM segments WHERE name = ?", (segment,)
            ).fetchone()[0]
            size = path.stat().st_size if path.exists() else 0
            if size > done:
                end = self._ingest_segment_tail(conn, segment, start=done)
                if end < size:
                    with open(path, "r+b") as handle:
                        handle.truncate(end)
                if self._indexed(conn, cid):
                    conn.commit()  # the tail held this very record: keep its rows
                    return cid
            _cid, line = encode_record_line(record, cid)
            offset, length = _fsync_append(path, line)
            self._index_record(conn, segment, offset, length, cid, record)
            conn.execute(
                "UPDATE segments SET indexed_bytes = ? WHERE name = ?",
                (offset + length, segment),
            )
            conn.commit()
        return cid

    def put_campaign(
        self,
        campaign: CampaignResult,
        golden_output: np.ndarray | None = None,
        label: str | None = None,
    ) -> str:
        """Build and store a record in one step; returns the id."""
        return self.put(build_record(campaign, golden_output=golden_output, label=label))

    # -- reading ----------------------------------------------------------

    def ids(self) -> list[str]:
        """Stored campaign ids in insertion order."""
        conn = self._db()
        return [row[0] for row in conn.execute("SELECT cid FROM campaigns ORDER BY seq")]

    def summaries(self) -> dict[str, dict]:
        """Per-id summary rows from the index (insertion order).

        Rows carry the full outcome-count breakdown (plus sampling
        mode) so listing consumers — ``report list``, the trend
        dashboard's uniform rows — never need the full record.
        """
        conn = self._db()
        rows = conn.execute(
            "SELECT cid, label, kind, n_injections, seed, probe, sampling, "
            "total, masked, sdc, crash_segv, crash_abort, hang "
            "FROM campaigns ORDER BY seq"
        )
        return {
            row[0]: {
                "label": row[1],
                "kind": row[2],
                "n_injections": row[3],
                "seed": row[4],
                "probe": bool(row[5]),
                "sampling": row[6],
                "total": row[7],
                "masked": row[8],
                "sdc": row[9],
                "crash_segv": row[10],
                "crash_abort": row[11],
                "hang": row[12],
            }
            for row in rows
        }

    def get(self, cid: str) -> dict:
        """Load one record by id, verifying its CRC and content address.

        The id resolves through the SQLite index to a single
        ``(segment, offset, length)`` seek — O(log n), not a scan.
        """
        location = self.location(cid)
        if location is None:
            raise StoreError(
                f"campaign {cid!r} is not in store {self.root} "
                f"(known: {', '.join(self.ids()) or 'none'})"
            )
        segment, offset, length = location
        path = self.segments_dir / segment
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(length)
        except OSError as exc:
            raise StoreError(f"store segment {path} is unreadable: {exc}") from None
        if not data.endswith(b"\n"):
            raise StoreError(
                f"store segment {segment} is shorter than its index entry for {cid}"
            )
        found, record = decode_record_line(
            data[:-1].decode("utf-8"), f"{segment}@{offset}"
        )
        if found != cid:
            raise StoreError(
                f"store index for {cid} points at record {found} "
                f"({segment}@{offset}); run `repro store rebuild {self.root}`"
            )
        return record

    def records(self) -> Iterator[tuple[str, dict]]:
        """All ``(cid, record)`` pairs in insertion order (verified).

        This is the brute-force path: it decodes every segment line and
        is what the indexed query engine is property-tested against.
        """
        for segment in self._manifest_segments():
            path = self.segments_dir / segment
            if not path.exists():
                continue  # crash between manifest append and first write
            for offset, _length, text in _scan_lines(path):
                yield decode_record_line(text, f"{segment}:{offset}")

    def location(self, cid: str) -> tuple[str, int, int] | None:
        """``(segment, offset, length)`` for one id, or None if absent."""
        row = self._db().execute(
            "SELECT segment, offset, length FROM campaigns WHERE cid = ?", (cid,)
        ).fetchone()
        return (row[0], row[1], row[2]) if row is not None else None

    # ------------------------------------------------------------------
    # Segments, manifest and SQLite index
    # ------------------------------------------------------------------

    def _manifest_segments(self) -> list[str]:
        """Segment names in manifest (append) order; torn tail ignored."""
        if not self.manifest_path.exists():
            return []
        segments: list[str] = []
        for offset, _length, text in _scan_lines(self.manifest_path):
            try:
                entry = json.loads(text)
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"store manifest {self.manifest_path} offset {offset} "
                    f"is not JSON: {exc}"
                ) from None
            payload = entry.get("entry")
            if not isinstance(payload, dict) or zlib.crc32(
                _canonical_json(payload).encode("utf-8")
            ) != entry.get("crc32"):
                raise StoreError(
                    f"store manifest {self.manifest_path} offset {offset} "
                    f"failed its CRC check"
                )
            if payload.get("type") == "header":
                if payload.get("layout") != LAYOUT_V2:
                    raise StoreError(
                        f"store manifest layout {payload.get('layout')!r} is not "
                        f"supported (expected {LAYOUT_V2})"
                    )
            elif payload.get("type") == "segment":
                segments.append(payload["name"])
        return segments

    def _append_manifest(self, payload: dict) -> None:
        _fsync_append(self.manifest_path, _manifest_line(payload))

    def _live_segment(self, conn: sqlite3.Connection) -> str:
        """The segment the next put appends to, rolling when full.

        The manifest line is fsync'd *before* the segment file is
        created, so no record can ever live in an unreferenced segment.
        """
        segments = self._manifest_segments()
        if segments:
            live = self.segments_dir / segments[-1]
            if not live.exists() or live.stat().st_size < self.segment_max_bytes:
                return segments[-1]
        else:
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            self._append_manifest({"type": "header", "layout": LAYOUT_V2})
        seq = len(segments) + 1
        name = _segment_name(seq)
        self._append_manifest({"type": "segment", "name": name, "seq": seq})
        conn.execute(
            "INSERT OR IGNORE INTO segments(name, seq, indexed_bytes) VALUES (?, ?, 0)",
            (name, seq),
        )
        return name

    @staticmethod
    def _indexed(conn: sqlite3.Connection, cid: str) -> bool:
        return (
            conn.execute("SELECT 1 FROM campaigns WHERE cid = ?", (cid,)).fetchone()
            is not None
        )

    def _db(self, repair: bool = False) -> sqlite3.Connection:
        """The SQLite index, opened/validated/synced on first use.

        Derived state: missing or corrupt databases are rebuilt from the
        segments; stale databases (segment bytes beyond what is indexed
        — e.g. the index write raced a crash) are incrementally re-synced
        by scanning only the un-indexed tails.  ``repair=True`` lets the
        sync truncate torn segment tails (writer paths); read paths
        leave the file untouched and simply ignore the tail.
        """
        if self._conn is not None:
            if repair and not self._repaired:
                # First opened by a read path: writers must still clear
                # any torn segment tail before they append after it.
                self._sync_index(self._conn, repair=True)
                self._repaired = True
            return self._conn
        self.root.mkdir(parents=True, exist_ok=True)
        conn = self._open_db()
        if conn is None:
            try:
                self.db_path.unlink()
            except FileNotFoundError:
                pass
            conn = self._open_db()
            assert conn is not None  # fresh file: schema just created
        try:
            self._sync_index(conn, repair=repair)
        except StoreError:
            conn.close()
            raise
        self._repaired = repair
        self._conn = conn
        return conn

    def _open_db(self) -> sqlite3.Connection | None:
        """Open + validate (or initialize) the index; None when corrupt."""
        try:
            conn = sqlite3.connect(self.db_path)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            version = conn.execute("PRAGMA user_version").fetchone()[0]
        except sqlite3.DatabaseError:
            return None
        if version == 0:
            # Either a fresh database or one from before versioning —
            # initialize idempotently, then stamp.
            try:
                tables = {
                    row[0]
                    for row in conn.execute(
                        "SELECT name FROM sqlite_master WHERE type='table'"
                    )
                }
            except sqlite3.DatabaseError:
                conn.close()
                return None
            if tables:
                conn.close()
                return None  # foreign/unversioned database: rebuild
            conn.executescript(_DB_SCHEMA)
            conn.execute(f"PRAGMA user_version = {DB_SCHEMA_VERSION}")
            conn.commit()
            return conn
        if version != DB_SCHEMA_VERSION:
            conn.close()
            return None
        try:
            conn.execute("SELECT seq FROM campaigns LIMIT 1").fetchone()
            conn.execute("SELECT name FROM segments LIMIT 1").fetchone()
        except sqlite3.DatabaseError:
            conn.close()
            return None
        return conn

    def _sync_index(self, conn: sqlite3.Connection, repair: bool) -> None:
        """Bring the index up to date with the segment files."""
        manifest = self._manifest_segments()
        indexed = {
            name: bytes_done
            for name, bytes_done in conn.execute(
                "SELECT name, indexed_bytes FROM segments"
            )
        }
        stale = set(indexed) - set(manifest)
        if stale:
            raise StoreError(
                f"store index references unknown segment(s) {sorted(stale)}; "
                f"run `repro store rebuild {self.root}`"
            )
        dirty = False
        for seq, name in enumerate(manifest, start=1):
            path = self.segments_dir / name
            size = path.stat().st_size if path.exists() else 0
            done = indexed.get(name, 0)
            if name not in indexed:
                conn.execute(
                    "INSERT INTO segments(name, seq, indexed_bytes) VALUES (?, ?, 0)",
                    (name, seq),
                )
                dirty = True
            if size < done:
                raise StoreError(
                    f"store segment {name} is shorter ({size}B) than its index "
                    f"claims ({done}B); run `repro store rebuild {self.root}`"
                )
            if size > done:
                end = self._ingest_segment_tail(conn, name, start=done)
                if repair and end < size:
                    # Torn tail from a crashed put: the record was never
                    # acknowledged, so drop it before the next append —
                    # the same recovery the checkpoint journal applies.
                    with open(path, "r+b") as handle:
                        handle.truncate(end)
                dirty = True
        if dirty:
            conn.commit()

    def _ingest_segment_tail(
        self, conn: sqlite3.Connection, segment: str, start: int
    ) -> int:
        """Index every complete record line from ``start``; returns end."""
        path = self.segments_dir / segment
        end = start
        for offset, length, text in _scan_lines(path, start):
            cid, record = decode_record_line(text, f"{segment}:{offset}")
            if not self._indexed(conn, cid):
                self._index_record(conn, segment, offset, length, cid, record)
            end = offset + length
        conn.execute(
            "UPDATE segments SET indexed_bytes = ? WHERE name = ?", (end, segment)
        )
        return end

    def _index_record(
        self,
        conn: sqlite3.Connection,
        segment: str,
        offset: int,
        length: int,
        cid: str,
        record: dict,
    ) -> None:
        """One batched transaction's worth of index rows for a record."""
        summary = record_summary(record)
        cursor = conn.execute(
            "INSERT INTO campaigns(cid, label, kind, n_injections, seed, probe, "
            "sampling, total, masked, sdc, crash_segv, crash_abort, hang, "
            "segment, offset, length, ingested_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                cid,
                summary["label"],
                summary["kind"],
                summary["n_injections"],
                summary["seed"],
                1 if summary["probe"] else 0,
                summary["sampling"],
                summary["total"],
                summary["masked"],
                summary["sdc"],
                summary["crash_segv"],
                summary["crash_abort"],
                summary["hang"],
                segment,
                offset,
                length,
                time.time(),
            ),
        )
        seq = cursor.lastrowid
        conn.executemany(
            "INSERT INTO injections(campaign_seq, item, register, bit, "
            "register_class, bit_octet, outcome, crash_kind, fired, "
            "first_divergence, last_stage, diverged_bits, probed) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                (
                    seq,
                    item,
                    view["register"],
                    view["bit"],
                    view["register_class"],
                    view["bit_octet"],
                    view["outcome"],
                    view["crash_kind"],
                    view["fired"],
                    view["first_divergence"],
                    view["last_stage"],
                    view["diverged_bits"],
                    view["probed"],
                )
                for item, view in enumerate(
                    injection_view(row) for row in record["injections"]
                )
            ),
        )


_DB_SCHEMA = """
CREATE TABLE segments(
    name TEXT PRIMARY KEY,
    seq INTEGER NOT NULL,
    indexed_bytes INTEGER NOT NULL
);
CREATE TABLE campaigns(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    cid TEXT NOT NULL UNIQUE,
    label TEXT,
    kind TEXT NOT NULL,
    n_injections INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    probe INTEGER NOT NULL,
    sampling TEXT NOT NULL,
    total INTEGER NOT NULL,
    masked INTEGER NOT NULL,
    sdc INTEGER NOT NULL,
    crash_segv INTEGER NOT NULL,
    crash_abort INTEGER NOT NULL,
    hang INTEGER NOT NULL,
    segment TEXT NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    ingested_at REAL
);
CREATE TABLE injections(
    campaign_seq INTEGER NOT NULL REFERENCES campaigns(seq),
    item INTEGER NOT NULL,
    register INTEGER NOT NULL,
    bit INTEGER NOT NULL,
    register_class INTEGER NOT NULL,
    bit_octet INTEGER NOT NULL,
    outcome TEXT NOT NULL,
    crash_kind TEXT NOT NULL,
    fired INTEGER NOT NULL,
    first_divergence TEXT NOT NULL,
    last_stage TEXT NOT NULL,
    diverged_bits INTEGER NOT NULL,
    probed INTEGER NOT NULL,
    PRIMARY KEY(campaign_seq, item)
) WITHOUT ROWID;
CREATE INDEX idx_inj_outcome ON injections(outcome, register_class, bit_octet);
CREATE INDEX idx_inj_cell ON injections(register_class, bit_octet);
CREATE INDEX idx_inj_stage ON injections(first_divergence);
CREATE INDEX idx_campaign_label ON campaigns(label);
"""


# ---------------------------------------------------------------------------
# Migration and rebuild
# ---------------------------------------------------------------------------


def migrate_store(
    root: Path | str, segment_max_bytes: int | None = None
) -> MigrationReport:
    """Convert a v1 store to the v2 layout in place — lossless, id-stable.

    This is the only reader of the retired v1 log.  Record lines are
    copied **byte-for-byte** from ``campaigns.jsonl`` into the new
    segments (after CRC + content-address verification), so every record
    round-trips identically and keeps its sha256 id.  The manifest is
    renamed into place last, so a crash mid-migration leaves a store
    that still reads as v1; the id sequence is verified before the v1
    files are retired beside the new layout as ``*.v1`` backups.
    """
    root = Path(root)
    log = root / V1_LOG
    manifest_path = root / "manifest.jsonl"
    segments_dir = root / "segments"
    report = MigrationReport(root=root)
    if manifest_path.exists():
        raise StoreError(f"store {root} already uses the v2 layout")
    if not log.exists():
        raise StoreError(f"store {root} has no {V1_LOG} to migrate")
    limit = _segment_limit(segment_max_bytes)

    # Pass 1: verify every line and plan the segment split.  Duplicate
    # cid lines (a pre-dedupe-fix log could hold the same record twice;
    # identical cid means identical bytes, so nothing is lost) are
    # skipped, matching the v1 side index's first-wins semantics.
    lines: list[str] = []
    seen: set[str] = set()
    for offset, _length, text in _scan_lines(log):
        cid, _record = decode_record_line(text, f"{log}:{offset}")
        if cid not in seen:
            seen.add(cid)
            report.ids.append(cid)
            lines.append(text)

    # Pass 2: write segments (verbatim lines), then the manifest — the
    # store opens as v2 only once everything is in place.
    segments_dir.mkdir(parents=True, exist_ok=True)
    chunks: list[list[str]] = [[]]
    chunk_bytes = 0
    for text in lines:
        size = len(text.encode("utf-8")) + 1
        if chunks[-1] and chunk_bytes + size > limit:
            chunks.append([])
            chunk_bytes = 0
        chunks[-1].append(text)
        chunk_bytes += size
    # An empty store still gets one (empty) live segment.
    segments = [_segment_name(seq) for seq in range(1, len(chunks) + 1)]
    for name, chunk in zip(segments, chunks):
        _fsync_write(segments_dir / name, "".join(line + "\n" for line in chunk))
    report.segments = len(segments)

    (root / "index.sqlite").unlink(missing_ok=True)
    manifest = [{"type": "header", "layout": LAYOUT_V2}] + [
        {"type": "segment", "name": name, "seq": seq}
        for seq, name in enumerate(segments, start=1)
    ]
    tmp = manifest_path.with_suffix(".jsonl.tmp")
    _fsync_write(tmp, "".join(_manifest_line(entry) + "\n" for entry in manifest))
    os.replace(tmp, manifest_path)

    # Build the index (and verify the ids survived) through the normal
    # open-time sync path — the manifest now wins over the log — *before*
    # retiring the v1 files, so a failed verification leaves the
    # original log untouched on disk.
    with CampaignStore(root, segment_max_bytes=limit) as migrated:
        migrated._db(repair=True)
        new_ids = migrated.ids()
    if new_ids != report.ids:
        raise StoreError(
            f"migration of {root} changed the id sequence "
            f"({len(report.ids)} -> {len(new_ids)} records); the v1 "
            f"files were left in place"
        )

    # Retire the v1 files (log and either generation of side index).
    for name in (V1_LOG, "index.json", "index.jsonl"):
        old = root / name
        if old.exists():
            backup = old.with_name(name + ".v1")
            os.replace(old, backup)
            report.backups.append(backup.name)
    return report


def rebuild_store(root: Path | str) -> int:
    """Rebuild ``index.sqlite`` from the segments; returns the record count.

    Torn segment tails are truncated on the way.
    """
    store = CampaignStore(root)
    for suffix in ("", "-wal", "-shm"):
        Path(str(store.db_path) + suffix).unlink(missing_ok=True)
    with store:
        store._db(repair=True)
        return len(store.ids())
