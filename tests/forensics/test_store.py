"""Tests for the content-addressed campaign result store."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.registers import RegKind
from repro.forensics.store import (
    CampaignStore,
    StoreError,
    build_record,
    campaign_id,
    encode_record_line,
    migrate_store,
)
from repro.forensics.synth import synthesize_corpus, synthesize_record

from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload
from tests.forensics.test_migrate import write_v1_log


@pytest.fixture(scope="module")
def toy_campaign():
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    campaign = run_campaign(
        toy_workload,
        golden,
        cycles,
        CampaignConfig(
            n_injections=40, kind=RegKind.GPR, seed=9, probe=True, keep_sdc_outputs=True
        ),
    )
    return campaign, golden


class TestBuildRecord:
    def test_record_is_json_and_content_addressed(self, toy_campaign):
        campaign, golden = toy_campaign
        record = build_record(campaign, golden_output=golden, label="toy")
        json.dumps(record)  # storable end to end
        assert len(record["injections"]) == 40
        assert record["counts"]["total"] == 40
        assert record["divergence"]["probed"] == 40
        # Identical campaign -> identical id (content addressing).
        again = build_record(campaign, golden_output=golden, label="toy")
        assert campaign_id(record) == campaign_id(again)
        assert len(campaign_id(record)) == 16

    def test_label_changes_id(self, toy_campaign):
        campaign, golden = toy_campaign
        a = build_record(campaign, label="a")
        b = build_record(campaign, label="b")
        assert campaign_id(a) != campaign_id(b)

    def test_sdc_quality_requires_golden(self, toy_campaign):
        campaign, golden = toy_campaign
        assert build_record(campaign)["sdc_quality"] == []
        scored = build_record(campaign, golden_output=golden)["sdc_quality"]
        assert len(scored) == campaign.counts.sdc
        for entry in scored:
            assert set(entry) == {"index", "relative_l2", "ed"}


class TestCampaignStore:
    """Campaign-record in, record out."""

    def test_put_get_roundtrip(self, toy_campaign, tmp_path):
        campaign, golden = toy_campaign
        store = CampaignStore(tmp_path / "store")
        record = build_record(campaign, golden_output=golden, label="toy")
        cid = store.put(record)
        assert cid == campaign_id(record)
        assert store.get(cid) == record
        assert store.ids() == [cid]
        assert store.summaries()[cid]["probe"] is True
        assert store.summaries()[cid]["sampling"] == "uniform"

    def test_put_is_idempotent(self, toy_campaign, tmp_path):
        campaign, _ = toy_campaign
        store = CampaignStore(tmp_path / "store")
        record = build_record(campaign, label="same")
        assert store.put(record) == store.put(record)
        assert len(store.ids()) == 1
        assert len(list(store.records())) == 1

    def test_insertion_order_preserved(self, toy_campaign, tmp_path):
        campaign, _ = toy_campaign
        store = CampaignStore(tmp_path / "store")
        ids = [store.put(build_record(campaign, label=label)) for label in "abc"]
        assert store.ids() == ids
        assert [cid for cid, _record in store.records()] == ids

    def test_missing_id_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="not in store"):
            CampaignStore(tmp_path / "store").get("deadbeefdeadbeef")

    def test_wrong_schema_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="schema"):
            CampaignStore(tmp_path / "store").put({"schema": 999})

    def test_put_campaign_shortcut(self, toy_campaign, tmp_path):
        campaign, golden = toy_campaign
        store = CampaignStore(tmp_path / "store")
        cid = store.put_campaign(campaign, golden_output=golden, label="short")
        assert store.get(cid)["label"] == "short"

    def test_ids_stable_across_layouts(self, tmp_path):
        # Content addressing is layout-independent: a record put straight
        # into v2 and one migrated from a v1 log get the same id.
        record = synthesize_record(seed=5, n_injections=12)
        cid = CampaignStore(tmp_path / "v2").put(record)
        assert cid == campaign_id(record)
        report = migrate_store(write_v1_log(tmp_path / "v1", [record]))
        assert report.ids == [cid]
        assert CampaignStore(tmp_path / "v1").get(cid) == record

    def test_v1_directory_refused_without_writing(self, tmp_path):
        root = write_v1_log(tmp_path / "store", [synthesize_record(seed=2, n_injections=10)])
        with pytest.raises(StoreError, match="repro store migrate"):
            CampaignStore(root)
        assert [p.name for p in root.iterdir()] == ["campaigns.jsonl"]


def _put_closed(root, *seeds) -> list[str]:
    """Put one synthetic record per seed through a handle, then close it."""
    with CampaignStore(root) as store:
        return [store.put(synthesize_record(seed=s, n_injections=10)) for s in seeds]


class TestV2Layout:
    def test_segments_roll_at_size_cap(self, tmp_path):
        store = CampaignStore(tmp_path / "store", segment_max_bytes=2048)
        ids = [store.put(r) for r in synthesize_corpus(5, seed=30, n_injections=20)]
        segments = sorted(p.name for p in store.segments_dir.iterdir())
        assert len(segments) > 1
        # Every segment stays bounded by cap + one record's overflow.
        for name in segments[:-1]:
            assert (store.segments_dir / name).stat().st_size >= 2048
        assert store.ids() == ids
        for cid in ids:
            assert campaign_id(store.get(cid)) == cid

    def test_get_reads_one_seek_not_a_scan(self, tmp_path):
        store = CampaignStore(tmp_path / "store", segment_max_bytes=2048)
        records = synthesize_corpus(4, seed=31, n_injections=20)
        ids = [store.put(r) for r in records]
        segment, offset, length = store.location(ids[2])
        raw = (store.segments_dir / segment).read_bytes()[offset : offset + length]
        entry = json.loads(raw.decode("utf-8"))
        assert entry["id"] == ids[2]
        assert entry["record"] == records[2]

    def test_corrupted_record_detected(self, tmp_path):
        [cid] = _put_closed(tmp_path / "store", 32)
        segment = tmp_path / "store" / "segments" / "seg-000001.jsonl"
        segment.write_bytes(segment.read_bytes().replace(b'"masked":', b'"maskex":', 1))
        with pytest.raises(StoreError, match="CRC"):
            CampaignStore(tmp_path / "store").get(cid)

    def test_missing_sqlite_rebuilt_on_open(self, tmp_path):
        ids = _put_closed(tmp_path / "store", 33, 34, 35)
        (tmp_path / "store" / "index.sqlite").unlink()
        assert CampaignStore(tmp_path / "store").ids() == ids

    def test_corrupt_sqlite_rebuilt_on_open(self, tmp_path):
        ids = _put_closed(tmp_path / "store", 34, 35)
        (tmp_path / "store" / "index.sqlite").write_bytes(b"not a database")
        assert CampaignStore(tmp_path / "store").ids() == ids

    def test_stale_sqlite_synced_incrementally(self, tmp_path):
        # A record appended to the segment but missing from the index
        # (the index write raced a crash) is picked up on the next open.
        [first] = _put_closed(tmp_path / "store", 35)
        [second] = _put_closed(tmp_path / "store", 36)
        # Roll the index back to the first record's state.
        conn = sqlite3.connect(tmp_path / "store" / "index.sqlite")
        seq, segment, offset = conn.execute(
            "SELECT seq, segment, offset FROM campaigns WHERE cid = ?", (second,)
        ).fetchone()
        conn.execute("DELETE FROM injections WHERE campaign_seq = ?", (seq,))
        conn.execute("DELETE FROM campaigns WHERE seq = ?", (seq,))
        conn.execute(
            "UPDATE segments SET indexed_bytes = ? WHERE name = ?", (offset, segment)
        )
        conn.commit()
        conn.close()
        assert CampaignStore(tmp_path / "store").ids() == [first, second]

    def test_torn_tail_ignored_by_readers(self, tmp_path):
        [cid] = _put_closed(tmp_path / "store", 40)
        segment = tmp_path / "store" / "segments" / "seg-000001.jsonl"
        before = segment.read_bytes()
        # A crashed put leaves a partial, never-acknowledged final line.
        with open(segment, "ab") as handle:
            handle.write(b'{"id":"torn-partial-line')
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [cid]
        assert [c for c, _r in fresh.records()] == [cid]
        # A pure read never modifies the file.
        assert segment.read_bytes() == before + b'{"id":"torn-partial-line'

    def test_torn_tail_truncated_before_write(self, tmp_path):
        [first] = _put_closed(tmp_path / "store", 41)
        segment = tmp_path / "store" / "segments" / "seg-000001.jsonl"
        with open(segment, "ab") as handle:
            handle.write(b'{"id":"torn-partial-line')
        fresh = CampaignStore(tmp_path / "store")
        second = fresh.put(synthesize_record(seed=42, n_injections=10))
        assert fresh.ids() == [first, second]
        assert b"torn-partial-line" not in segment.read_bytes()
        for line in segment.read_text().splitlines():
            json.loads(line)  # every surviving line is whole

    def test_put_indexes_foreign_tail_before_append(self, tmp_path):
        # Another writer appended a record but crashed before committing
        # its index rows (or is still mid-put): our put must index that
        # tail before recording indexed_bytes past it, or the foreign
        # record would be marked covered without ever getting rows.
        store = CampaignStore(tmp_path / "store")
        first = store.put(synthesize_record(seed=50, n_injections=10))
        orphan = synthesize_record(seed=51, n_injections=10)
        ocid, line = encode_record_line(orphan)
        with open(tmp_path / "store" / "segments" / "seg-000001.jsonl", "ab") as handle:
            handle.write((line + "\n").encode("utf-8"))
        third = store.put(synthesize_record(seed=52, n_injections=10))
        assert store.ids() == [first, ocid, third]
        assert store.get(ocid) == orphan
        assert CampaignStore(tmp_path / "store").ids() == [first, ocid, third]

    def test_interleaved_writers_share_store(self, tmp_path):
        # Two long-lived handles on the same root must see each other's
        # appends (the advisory lock + per-put tail sync make this safe
        # across processes too).
        a = CampaignStore(tmp_path / "store")
        b = CampaignStore(tmp_path / "store")
        first = a.put(synthesize_record(seed=53, n_injections=10))
        second = b.put(synthesize_record(seed=54, n_injections=10))
        third = a.put(synthesize_record(seed=55, n_injections=10))
        a.close()
        b.close()
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [first, second, third]
        for cid in (first, second, third):
            assert campaign_id(fresh.get(cid)) == cid

    def test_schema_version_bump_forces_rebuild(self, tmp_path):
        ids = _put_closed(tmp_path / "store", 37)
        conn = sqlite3.connect(tmp_path / "store" / "index.sqlite")
        conn.execute("PRAGMA user_version = 999")
        conn.commit()
        conn.close()
        assert CampaignStore(tmp_path / "store").ids() == ids
