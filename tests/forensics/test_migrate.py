"""Migration tests: v1 -> v2 must be lossless, id-stable, byte-stable."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.forensics.query import StoreQuery, index_query
from repro.forensics.report import diff_records, render_report
from repro.forensics.store import (
    V1_LOG,
    CampaignStore,
    StoreError,
    encode_record_line,
    migrate_store,
    rebuild_store,
)
from repro.forensics.synth import synthesize_corpus, synthesize_record
from repro.observe.trend import build_trend, render_trend

FIXTURES = Path(__file__).parent / "fixtures"


def write_v1_log(root: Path, records: list[dict]) -> Path:
    """Lay out a retired v1 store: ``records`` as bare log lines."""
    root.mkdir(parents=True, exist_ok=True)
    lines = (encode_record_line(record)[1] + "\n" for record in records)
    (root / V1_LOG).write_text("".join(lines))
    return root


@pytest.fixture
def corpus():
    return synthesize_corpus(5, seed=200, n_injections=30, stratified_every=4)


@pytest.fixture
def v1_root(tmp_path, corpus):
    return write_v1_log(tmp_path / "store", corpus)


@pytest.fixture
def reference(tmp_path, corpus):
    """A v2 store filled from the same corpus: the migration's "before"."""
    store = CampaignStore(tmp_path / "reference")
    for record in corpus:
        store.put(record)
    return store


class TestMigrate:
    def test_ids_and_records_survive(self, v1_root, corpus, reference):
        ids = reference.ids()
        report = migrate_store(v1_root)
        assert report.ids == ids
        assert report.records == len(ids)
        v2 = CampaignStore(v1_root)
        assert v2.ids() == ids
        assert [v2.get(cid) for cid in ids] == corpus

    def test_segment_bytes_are_verbatim_copies(self, v1_root):
        original = (v1_root / "campaigns.jsonl").read_bytes()
        migrate_store(v1_root)
        store = CampaignStore(v1_root)
        concatenated = b"".join(
            (store.segments_dir / name).read_bytes()
            for name in sorted(p.name for p in store.segments_dir.iterdir())
        )
        assert concatenated == original

    def test_rendered_reports_are_byte_identical(self, v1_root, reference):
        ids = reference.ids()
        before = {
            cid: render_report(reference.get(cid), cid=cid, fmt="markdown")
            for cid in ids
        }
        trend_before = render_trend(build_trend(reference), fmt="markdown")
        migrate_store(v1_root)
        v2 = CampaignStore(v1_root)
        for cid in ids:
            assert render_report(v2.get(cid), cid=cid, fmt="markdown") == before[cid]
        assert render_trend(build_trend(v2), fmt="markdown") == trend_before

    def test_diff_unchanged_after_migration(self, v1_root, corpus, reference):
        a, b = reference.ids()[:2]
        before = diff_records(corpus[0], corpus[1])
        migrate_store(v1_root)
        v2 = CampaignStore(v1_root)
        assert diff_records(v2.get(a), v2.get(b)) == before

    def test_queries_unchanged_after_migration(self, v1_root, reference):
        query = StoreQuery(
            filters={"outcome": ("sdc", "crash")}, group_by=("register_class", "stage")
        )
        before = index_query(reference, query)
        migrate_store(v1_root)
        assert index_query(CampaignStore(v1_root), query) == before

    def test_v1_files_kept_as_backups(self, v1_root):
        report = migrate_store(v1_root)
        assert "campaigns.jsonl.v1" in report.backups
        assert (v1_root / "campaigns.jsonl.v1").exists()
        assert not (v1_root / "campaigns.jsonl").exists()

    def test_segments_respect_size_cap(self, v1_root):
        report = migrate_store(v1_root, segment_max_bytes=4096)
        assert report.segments > 1
        assert len(CampaignStore(v1_root).ids()) == report.records

    def test_store_stays_writable_after_migration(self, v1_root):
        migrate_store(v1_root)
        store = CampaignStore(v1_root)
        count = len(store.ids())
        cid = store.put(synthesize_record(seed=999, n_injections=10))
        assert len(store.ids()) == count + 1
        assert store.get(cid)["fingerprint"]["seed"] == 999

    def test_already_v2_rejected(self, v1_root):
        migrate_store(v1_root)
        with pytest.raises(StoreError, match="already"):
            migrate_store(v1_root)

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="no campaigns.jsonl"):
            migrate_store(tmp_path / "empty")

    def test_crc_corrupted_line_refused(self, v1_root):
        # Mid-log corruption is an error, never skipped: the v1 log stays
        # in place and no manifest flips the store to v2.
        log = v1_root / "campaigns.jsonl"
        # Flip a stored count without recomputing the CRC.
        log.write_text(log.read_text().replace('"masked":', '"maskex":', 1))
        before = log.read_bytes()
        with pytest.raises(StoreError, match="CRC"):
            migrate_store(v1_root)
        assert log.read_bytes() == before
        assert not (v1_root / "manifest.jsonl").exists()

    def test_duplicate_log_lines_deduped(self, v1_root, reference):
        # Logs written before the v1 dedupe fix can hold the same cid
        # line twice; migration keeps the first occurrence (matching
        # index semantics) and still verifies cleanly.
        ids = reference.ids()
        log = v1_root / "campaigns.jsonl"
        duplicate = log.read_text().splitlines()[0]
        with open(log, "a") as handle:
            handle.write(duplicate + "\n")
        report = migrate_store(v1_root)
        assert report.ids == ids
        v2 = CampaignStore(v1_root)
        assert v2.ids() == ids
        assert [cid for cid, _record in v2.records()] == ids

    def test_torn_v1_tail_dropped_not_migrated(self, v1_root, reference):
        # A torn final line was never acknowledged; migration carries
        # only complete records over.
        with open(v1_root / "campaigns.jsonl", "ab") as handle:
            handle.write(b'{"id":"torn-partial')
        report = migrate_store(v1_root)
        assert report.ids == reference.ids()


class TestCommittedFixture:
    def test_migrated_reports_match_golden_files(self, tmp_path, capsys):
        # The golden files were rendered from the unmigrated fixture by
        # the last release that still read v1 stores in place.
        store = tmp_path / "v1_store"
        shutil.copytree(FIXTURES / "v1_store", store)
        migrate_store(store)
        assert main(["report", "list", str(store)]) == 0
        listing = capsys.readouterr().out
        assert listing == (FIXTURES / "v1_store.list.txt").read_text()
        cid = listing.split()[0]
        assert main(["report", "show", str(store), cid, "--format", "markdown"]) == 0
        assert capsys.readouterr().out == (FIXTURES / "v1_store.show.md").read_text()


class TestRebuild:
    def test_rebuild_v2(self, v1_root):
        migrate_store(v1_root)
        ids = CampaignStore(v1_root).ids()
        (v1_root / "index.sqlite").unlink()
        assert rebuild_store(v1_root) == len(ids)
        assert CampaignStore(v1_root).ids() == ids

    def test_rebuild_v2_truncates_torn_tail(self, v1_root):
        migrate_store(v1_root)
        store = CampaignStore(v1_root)
        ids = store.ids()
        live = sorted(p.name for p in store.segments_dir.iterdir())[-1]
        with open(store.segments_dir / live, "ab") as handle:
            handle.write(b'{"id":"torn-partial')
        store.close()
        assert rebuild_store(v1_root) == len(ids)
        assert b"torn-partial" not in (store.segments_dir / live).read_bytes()
