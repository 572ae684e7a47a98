"""Kill-mid-campaign resume: the strongest durability test.

A real campaign process (not a thread, not a mock) is SIGKILL'd while
mid-run with a checkpoint journal enabled.  SIGKILL gives the process
zero chance to flush or clean up — anything that survives survived
because ``append_chunk`` fsync'd it.  The resumed run must then produce
outcome counts, running-rate series, histograms and per-run cycle
counts identical to an uninterrupted reference run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
HELPER = ["-m", "tests.faultinject._resume_worker"]


def _run_helper(mode: str, journal: Path, out: Path, *extra: str, wait: bool = True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + str(REPO_ROOT)
    process = subprocess.Popen(
        [sys.executable, *HELPER, mode, str(journal), str(out), *extra],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if wait:
        assert process.wait(timeout=120) == 0
    return process


def _journaled_chunks(journal: Path) -> int:
    if not journal.exists():
        return 0
    # Count complete chunk records only (ignore header and torn tail).
    count = 0
    for line in journal.read_bytes().split(b"\n")[:-1]:
        try:
            if json.loads(line).get("type") == "chunk":
                count += 1
        except json.JSONDecodeError:
            pass
    return count


def test_sigkill_mid_campaign_then_resume_is_bit_identical(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    killed_out = tmp_path / "killed.json"
    resumed_out = tmp_path / "resumed.json"
    reference_out = tmp_path / "reference.json"

    # Launch the journaled campaign with per-injection slowdown, wait
    # until at least one chunk is durably journaled, then SIGKILL it.
    process = _run_helper("run", journal, killed_out, "0.05", wait=False)
    deadline = time.monotonic() + 60
    while _journaled_chunks(journal) < 1:
        assert process.poll() is None, "campaign finished before it could be killed"
        assert time.monotonic() < deadline, "no chunk journaled within 60s"
        time.sleep(0.02)
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=30)
    assert not killed_out.exists(), "SIGKILL'd run must not have finished"
    chunks_before = _journaled_chunks(journal)
    assert chunks_before >= 1

    # Resume: journaled chunks replay, the remainder runs fresh.
    _run_helper("resume", journal, resumed_out)
    # Reference: one uninterrupted run, no journal.
    _run_helper("reference", journal, reference_out)

    resumed = json.loads(resumed_out.read_text())
    reference = json.loads(reference_out.read_text())
    assert resumed == reference


def test_sigkill_mid_stratified_campaign_then_resume_is_bit_identical(tmp_path):
    """The same SIGKILL protocol against a stratified campaign's journal.

    A stratified campaign's round ``k`` draws depend on the statistics
    of rounds ``< k``, so resuming from the fsync'd chunks of the first
    rounds must reproduce the uninterrupted campaign exactly — outcome
    sequence, per-cell statistics and the full sampling summary included.
    """
    journal = tmp_path / "stratified.jsonl"
    killed_out = tmp_path / "killed.json"
    resumed_out = tmp_path / "resumed.json"
    reference_out = tmp_path / "reference.json"

    process = _run_helper("strat-run", journal, killed_out, "0.03", wait=False)
    deadline = time.monotonic() + 60
    while _journaled_chunks(journal) < 1:
        assert process.poll() is None, "campaign finished before it could be killed"
        assert time.monotonic() < deadline, "no chunk journaled within 60s"
        time.sleep(0.02)
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=30)
    assert not killed_out.exists(), "SIGKILL'd run must not have finished"
    assert _journaled_chunks(journal) >= 1

    _run_helper("strat-resume", journal, resumed_out)
    _run_helper("strat-reference", journal, reference_out)

    resumed = json.loads(resumed_out.read_text())
    reference = json.loads(reference_out.read_text())
    assert resumed["sampling"]["mode"] == "stratified"
    assert resumed == reference


def _assert_status_parses(status: Path) -> dict | None:
    """Read the status snapshot; it must never be torn or partial.

    Returns the parsed payload, or None when the file does not exist
    yet.  Any JSONDecodeError is a real failure — the atomic
    write-then-rename protocol promises readers a complete document at
    every instant, including while the writer is being SIGKILL'd.
    """
    try:
        raw = status.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return json.loads(raw)


def test_sigkill_leaves_status_snapshot_parseable_and_resume_finishes(tmp_path):
    """Status crash safety under the same SIGKILL protocol.

    The helper campaign runs with ``REPRO_STATUS`` set (the env one-flag
    the CLI honours), and the parent polls the status file the whole
    time: every single read must parse as complete JSON and pass the
    schema gate.  After the kill, the file still parses; after a
    resumed run, it reaches ``finished`` with the full outcome tally.
    """
    from repro.observe.session import STATUS_ENV
    from repro.observe.status import validate_status

    journal = tmp_path / "campaign.jsonl"
    status = tmp_path / "status.json"
    killed_out = tmp_path / "killed.json"
    resumed_out = tmp_path / "resumed.json"
    reference_out = tmp_path / "reference.json"

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + str(REPO_ROOT)
    env[STATUS_ENV] = str(status)
    process = subprocess.Popen(
        [sys.executable, *HELPER, "run", str(journal), str(killed_out), "0.05"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )

    reads = 0
    deadline = time.monotonic() + 60
    while _journaled_chunks(journal) < 1:
        assert process.poll() is None, "campaign finished before it could be killed"
        assert time.monotonic() < deadline, "no chunk journaled within 60s"
        payload = _assert_status_parses(status)
        if payload is not None:
            reads += 1
            assert validate_status(payload) == []
        time.sleep(0.02)
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=30)
    assert not killed_out.exists(), "SIGKILL'd run must not have finished"
    assert reads >= 1, "status file never appeared while the campaign ran"

    # Post-mortem: the last atomically-replaced snapshot survived intact.
    payload = _assert_status_parses(status)
    assert payload is not None
    assert validate_status(payload) == []
    assert payload["state"] in ("starting", "running")

    # Resume under observation: the snapshot must reach `finished` and
    # the resumed result must still match the uninterrupted reference.
    resume = subprocess.run(
        [sys.executable, *HELPER, "resume", str(journal), str(resumed_out)],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    assert resume.returncode == 0
    payload = _assert_status_parses(status)
    assert validate_status(payload) == []
    assert payload["state"] == "finished"
    assert payload["resume"] is not None
    assert payload["progress"]["done"] == payload["progress"]["total"]

    _run_helper("reference", journal, reference_out)
    assert json.loads(resumed_out.read_text()) == json.loads(reference_out.read_text())
