"""Tests for the crash-safe campaign checkpoint journal.

The contract: a campaign run with a journal, interrupted at any chunk
boundary (or torn mid-record), resumes to a result **bit-identical** to
an uninterrupted run — counts, running-rate series, histograms and SDC
payloads included.
"""

from __future__ import annotations

import json
import os
from unittest import mock

import numpy as np
import pytest

from repro.faultinject.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.journal import (
    ABORT_AFTER_ENV,
    CampaignInterrupted,
    CampaignJournal,
    JournalError,
    config_fingerprint,
    deserialize_result,
    load_journal,
    serialize_result,
)
from repro.faultinject.monitor import InjectionResult
from repro.faultinject.outcomes import CrashKind, HangKind, Outcome
from repro.faultinject.registers import FlipEffect, RegKind, Role
from repro.faultinject.watchdog import WatchdogPolicy
from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload


def _campaigns_equal(first: CampaignResult, second: CampaignResult) -> None:
    assert first.counts == second.counts
    assert first.running == second.running
    assert first.fired == second.fired
    assert np.array_equal(first.register_histogram, second.register_histogram)
    assert np.array_equal(first.bit_histogram, second.bit_histogram)
    assert len(first.results) == len(second.results)
    for a, b in zip(first.results, second.results):
        assert a.plan == b.plan
        assert a.outcome == b.outcome
        assert a.crash_kind == b.crash_kind
        assert a.hang_kind == b.hang_kind
        assert a.record.fired == b.record.fired
        assert a.record.in_study == b.record.in_study
        assert a.cycles == b.cycles
        assert (a.output is None) == (b.output is None)
        if a.output is not None:
            assert a.output.dtype == b.output.dtype
            assert np.array_equal(a.output, b.output)


def _config(**overrides) -> CampaignConfig:
    base = dict(n_injections=40, kind=RegKind.GPR, seed=9, workers=1)
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture()
def toy():
    spec = ToyWorkloadSpec()
    _, golden, cycles = spec.build()
    return spec, golden, cycles


class TestResultRoundTrip:
    def test_full_fidelity(self):
        from repro.faultinject.injector import InjectionRecord

        plan = InjectionPlan(target_cycle=123, kind=RegKind.FPR, register=7, bit=63)
        record = InjectionRecord(
            plan=plan,
            fired=True,
            fired_cycle=130,
            site="warp.row",
            binding_name="src_ptr",
            role=Role.ADDRESS,
            effect=FlipEffect.APPLIED,
            in_study=False,
        )
        result = InjectionResult(
            plan=plan,
            record=record,
            outcome=Outcome.SDC,
            crash_kind=None,
            hang_kind=None,
            output=np.arange(24, dtype=np.uint8).reshape(4, 6),
            cycles=4567,
        )
        restored = deserialize_result(serialize_result(result))
        assert restored.plan == plan
        assert restored.outcome is Outcome.SDC
        assert restored.record.fired_cycle == 130
        assert restored.record.site == "warp.row"
        assert restored.record.role is Role.ADDRESS
        assert restored.record.effect is FlipEffect.APPLIED
        assert restored.record.in_study is False
        assert restored.cycles == 4567
        assert restored.output.dtype == np.uint8
        assert np.array_equal(restored.output, result.output)

    def test_enum_kinds_round_trip(self):
        plan = InjectionPlan(target_cycle=0, kind=RegKind.GPR, register=0, bit=0)
        from repro.faultinject.injector import InjectionRecord

        for outcome, crash, hang in [
            (Outcome.CRASH, CrashKind.SEGV, None),
            (Outcome.CRASH, CrashKind.ABORT, None),
            (Outcome.HANG, None, HangKind.SIMULATED),
            (Outcome.HANG, None, HangKind.WATCHDOG),
            (Outcome.MASKED, None, None),
        ]:
            result = InjectionResult(
                plan=plan,
                record=InjectionRecord(plan),
                outcome=outcome,
                crash_kind=crash,
                hang_kind=hang,
            )
            restored = deserialize_result(serialize_result(result))
            assert restored.outcome is outcome
            assert restored.crash_kind is crash
            assert restored.hang_kind is hang


class TestJournaledEquivalence:
    def test_journaled_run_matches_plain_serial(self, toy, tmp_path):
        spec, golden, cycles = toy
        plain = run_campaign(toy_workload, golden, cycles, _config())
        journaled = run_campaign(
            toy_workload, golden, cycles, _config(), journal_path=tmp_path / "j.jsonl"
        )
        _campaigns_equal(plain, journaled)

    def test_journaled_parallel_matches_serial(self, toy, tmp_path):
        spec, golden, cycles = toy
        plain = run_campaign(toy_workload, golden, cycles, _config())
        journaled = run_campaign(
            toy_workload,
            golden,
            cycles,
            _config(workers=4),
            spec=spec,
            journal_path=tmp_path / "j.jsonl",
        )
        _campaigns_equal(plain, journaled)

    def test_interrupt_then_resume_bit_identical(self, toy, tmp_path):
        spec, golden, cycles = toy
        reference = run_campaign(toy_workload, golden, cycles, _config())
        journal = tmp_path / "j.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted):
                run_campaign(toy_workload, golden, cycles, _config(), journal_path=journal)
        # Interrupted after one durable chunk: fewer lines than a full run.
        lines = journal.read_text().splitlines()
        assert len(lines) == 2  # header + one chunk
        resumed = run_campaign(
            toy_workload, golden, cycles, _config(), journal_path=journal, resume=True
        )
        _campaigns_equal(reference, resumed)

    def test_resume_with_sdc_payloads_bit_identical(self, toy, tmp_path):
        spec, golden, cycles = toy
        config = _config(keep_sdc_outputs=True, seed=0, n_injections=60)
        reference = run_campaign(toy_workload, golden, cycles, config)
        assert reference.sdc_results, "seed must produce SDCs for this test"
        journal = tmp_path / "j.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "2"}):
            with pytest.raises(CampaignInterrupted):
                run_campaign(toy_workload, golden, cycles, config, journal_path=journal)
        resumed = run_campaign(
            toy_workload, golden, cycles, config, journal_path=journal, resume=True
        )
        _campaigns_equal(reference, resumed)

    def test_resume_of_complete_journal_runs_nothing(self, toy, tmp_path):
        spec, golden, cycles = toy
        journal = tmp_path / "j.jsonl"
        reference = run_campaign(
            toy_workload, golden, cycles, _config(), journal_path=journal
        )

        def exploding_workload(ctx):
            raise AssertionError("resume of a complete journal must not re-run")

        resumed = run_campaign(
            exploding_workload, golden, cycles, _config(), journal_path=journal, resume=True
        )
        _campaigns_equal(reference, resumed)


class TestTornRecords:
    def _interrupted_journal(self, toy, tmp_path, chunks: int):
        spec, golden, cycles = toy
        journal = tmp_path / "j.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: str(chunks)}):
            with pytest.raises(CampaignInterrupted):
                run_campaign(toy_workload, golden, cycles, _config(), journal_path=journal)
        return journal

    def test_truncated_mid_record_discards_partial_and_resumes(self, toy, tmp_path):
        spec, golden, cycles = toy
        reference = run_campaign(toy_workload, golden, cycles, _config())
        journal = self._interrupted_journal(toy, tmp_path, chunks=2)
        data = journal.read_bytes()
        journal.write_bytes(data[:-30])  # tear the second chunk record

        state = load_journal(journal)
        assert state.discarded_partial
        assert len(state.chunks) == 1  # the torn chunk was dropped

        resumed = run_campaign(
            toy_workload, golden, cycles, _config(), journal_path=journal, resume=True
        )
        _campaigns_equal(reference, resumed)

    def test_corrupted_crc_discards_record(self, toy, tmp_path):
        journal = self._interrupted_journal(toy, tmp_path, chunks=2)
        lines = journal.read_text().splitlines()
        record = json.loads(lines[-1])
        record["crc32"] = (record["crc32"] + 1) & 0xFFFFFFFF
        lines[-1] = json.dumps(record, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n")

        state = load_journal(journal)
        assert state.discarded_partial
        assert len(state.chunks) == 1

    def test_resume_after_truncation_rewrites_cleanly(self, toy, tmp_path):
        """The torn bytes are physically truncated before appending."""
        spec, golden, cycles = toy
        journal = self._interrupted_journal(toy, tmp_path, chunks=1)
        data = journal.read_bytes()
        journal.write_bytes(data + b'{"type":"chunk","half')  # torn tail
        run_campaign(
            toy_workload, golden, cycles, _config(), journal_path=journal, resume=True
        )
        # Every line in the final file must be valid JSON.
        for line in journal.read_text().splitlines():
            json.loads(line)


class TestJournalValidation:
    def test_missing_journal_rejected(self, toy, tmp_path):
        spec, golden, cycles = toy
        with pytest.raises(JournalError, match="does not exist"):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                _config(),
                journal_path=tmp_path / "absent.jsonl",
                resume=True,
            )

    def test_config_mismatch_rejected(self, toy, tmp_path):
        spec, golden, cycles = toy
        journal = tmp_path / "j.jsonl"
        run_campaign(toy_workload, golden, cycles, _config(), journal_path=journal)
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                _config(seed=10),
                journal_path=journal,
                resume=True,
            )

    @pytest.mark.parametrize("schema", [3, 999])
    def test_wrong_schema_rejected(self, toy, tmp_path, schema):
        # v3 journals are in-flight checkpoints of the old execution
        # modes, not results: resuming one is refused like any other.
        spec, golden, cycles = toy
        journal = tmp_path / "j.jsonl"
        run_campaign(toy_workload, golden, cycles, _config(), journal_path=journal)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = schema
        journal.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(JournalError, match=f"schema {schema} .*expected 4"):
            run_campaign(
                toy_workload, golden, cycles, _config(), journal_path=journal, resume=True
            )

    def test_fingerprint_tracks_watchdog_soft_deadline(self):
        base = _config()
        with_watchdog = _config(watchdog=WatchdogPolicy(soft_deadline_s=1.0))
        assert config_fingerprint(base) != config_fingerprint(with_watchdog)

    def test_fingerprint_ignores_execution_knobs(self):
        assert config_fingerprint(_config(workers=1)) == config_fingerprint(
            _config(workers=8)
        )


class TestAbortHook:
    def test_interrupt_message_names_resume_path(self, toy, tmp_path):
        spec, golden, cycles = toy
        journal = tmp_path / "j.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted, match="--resume"):
                run_campaign(toy_workload, golden, cycles, _config(), journal_path=journal)

    def test_fsync_every_chunk(self, toy, tmp_path, monkeypatch):
        spec, golden, cycles = toy
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        journal = tmp_path / "j.jsonl"
        run_campaign(toy_workload, golden, cycles, _config(), journal_path=journal)
        chunk_lines = len(journal.read_text().splitlines())
        assert len(fsyncs) == chunk_lines  # header + every chunk
