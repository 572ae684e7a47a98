"""CLI tests: campaign --probe/--store, report, and store subcommands."""

from __future__ import annotations

import json

import pytest

import repro.cli
from repro.cli import main
from repro.forensics.store import CampaignStore
from repro.forensics.synth import synthesize_corpus

from tests.forensics.test_migrate import write_v1_log


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """Two small probed campaigns stored via the CLI."""
    store = tmp_path_factory.mktemp("store")
    base = [
        "campaign", "--input", "input2", "--frames", "8", "-n", "10",
        "--workers", "1", "--probe", "--store", str(store),
    ]
    assert main([*base, "--seed", "3", "--label", "first"]) == 0
    assert main([*base, "--seed", "9", "--label", "second"]) == 0
    return store


def _stored_ids(store, capsys) -> list[str]:
    assert main(["report", "list", str(store)]) == 0
    return [line.split()[0] for line in capsys.readouterr().out.splitlines()]


class TestCampaignForensicsFlags:
    def test_probe_and_store_announced(self, stored, capsys, tmp_path):
        code = main(
            [
                "campaign", "--input", "input2", "--frames", "8", "-n", "6",
                "--workers", "1", "--seed", "5", "--probe", "--store", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "divergence:" in out
        assert "stored campaign" in out


class TestReportCommand:
    def test_list_shows_both_campaigns(self, stored, capsys):
        ids = _stored_ids(stored, capsys)
        assert len(ids) == 2
        assert len(set(ids)) == 2

    def test_show_writes_deterministic_report(self, stored, capsys, tmp_path):
        cid = _stored_ids(stored, capsys)[0]
        first = tmp_path / "a.md"
        second = tmp_path / "b.md"
        assert main(["report", "show", str(stored), cid, "--format", "markdown",
                     "--out", str(first)]) == 0
        assert main(["report", "show", str(stored), cid, "--format", "markdown",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "## Outcome rates" in first.read_text()

    def test_show_html(self, stored, capsys, tmp_path):
        cid = _stored_ids(stored, capsys)[0]
        out = tmp_path / "report.html"
        assert main(["report", "show", str(stored), cid, "--format", "html",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_self_diff_quiet_exit_zero(self, stored, capsys):
        cid = _stored_ids(stored, capsys)[0]
        assert main(["report", "diff", str(stored), cid, cid]) == 0
        assert "no statistically significant shifts" in capsys.readouterr().out

    def test_diff_two_seeds_runs(self, stored, capsys):
        ids = _stored_ids(stored, capsys)
        # Two tiny same-config campaigns: the gate may or may not flag,
        # but the command must render and exit 0 or 4, nothing else.
        code = main(["report", "diff", str(stored), ids[0], ids[1]])
        assert code in (0, 4)
        assert "Rate shifts" in capsys.readouterr().out

    def test_list_shows_sampling_mode_column(self, stored, capsys):
        assert main(["report", "list", str(stored)]) == 0
        for line in capsys.readouterr().out.splitlines():
            assert " uniform " in f" {line} "

    def test_query_groups_outcomes(self, stored, capsys):
        assert main(["report", "query", str(stored)]) == 0
        out = capsys.readouterr().out
        assert "Grouped counts" in out
        assert "matching injections" in out

    def test_query_where_and_group_by(self, stored, capsys, tmp_path):
        out_path = tmp_path / "query.md"
        assert main(
            [
                "report", "query", str(stored),
                "--where", "outcome=sdc", "--where", "outcome=crash",
                "--group-by", "register_class,outcome",
                "--format", "markdown", "--out", str(out_path),
            ]
        ) == 0
        text = out_path.read_text()
        assert "register_class" in text
        assert "outcome in (sdc, crash)" in text

    def test_query_bad_field_is_usage_error(self, stored, capsys):
        assert main(["report", "query", str(stored), "--group-by", "nope"]) == 2
        assert "unknown query field" in capsys.readouterr().err


@pytest.fixture
def v1_store_root(tmp_path):
    return write_v1_log(tmp_path / "v1store", synthesize_corpus(3, seed=400, n_injections=20))


class TestV1StoreRefused:
    """A v1 store exits 2 with the migrate pointer, never a traceback."""

    def test_campaign_fails_before_the_golden_run(self, v1_store_root, capsys, monkeypatch):
        monkeypatch.setattr(repro.cli, "golden_with_tape", None)  # calling it would raise
        code = main(["campaign", "-n", "2", "--store", str(v1_store_root)])
        assert code == 2
        assert f"repro store migrate {v1_store_root}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "action",
        ["list", "show 0123456789abcdef", "diff 0123456789abcdef fedcba9876543210",
         "trend", "query --group-by outcome"],
        ids=lambda action: action.split()[0],
    )
    def test_report_actions(self, v1_store_root, capsys, action):
        name, *rest = action.split()
        assert main(["report", name, str(v1_store_root), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro report {name}: ")
        assert f"repro store migrate {v1_store_root}" in err


class TestStoreCommand:
    def test_migrate_reports_and_converts(self, v1_store_root, capsys):
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        out = capsys.readouterr().out
        assert "migrated 3 record(s)" in out
        assert "ids unchanged" in out
        assert (v1_store_root / "manifest.jsonl").exists()
        assert len(CampaignStore(v1_store_root).ids()) == 3

    def test_migrate_twice_is_usage_error(self, v1_store_root, capsys):
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        capsys.readouterr()
        assert main(["store", "migrate", str(v1_store_root)]) == 2
        assert "already" in capsys.readouterr().err

    def test_rebuild_refuses_v1_then_rebuilds_v2(self, v1_store_root, capsys):
        assert main(["store", "rebuild", str(v1_store_root)]) == 2
        assert f"repro store migrate {v1_store_root}" in capsys.readouterr().err
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        capsys.readouterr()
        assert main(["store", "rebuild", str(v1_store_root)]) == 0
        out = capsys.readouterr().out
        assert "rebuilt the SQLite index" in out
        assert "3 record(s)" in out

    def test_report_commands_work_after_migrate(self, v1_store_root, capsys):
        log = (v1_store_root / "campaigns.jsonl").read_text().splitlines()
        ids = [json.loads(line)["id"] for line in log]
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        capsys.readouterr()
        assert _stored_ids(v1_store_root, capsys) == ids
        assert main(["report", "query", str(v1_store_root),
                     "--where", "outcome=sdc", "--group-by", "stage"]) == 0
        assert "Grouped counts" in capsys.readouterr().out
