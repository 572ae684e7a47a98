"""Tests for result serialization and the CLI."""

import json
import os

import numpy as np
import pytest

from repro.analysis.reporting import (
    campaign_to_dict,
    counts_to_dict,
    load_json,
    markdown_table,
    save_json,
)
from repro.cli import build_parser, main
from repro.faultinject.outcomes import CrashKind, Outcome, OutcomeCounts


class TestReporting:
    def test_counts_roundtrip_fields(self):
        counts = OutcomeCounts(masked=5, sdc=1, crash_segv=3, crash_abort=1, hang=0)
        payload = counts_to_dict(counts)
        assert payload["total"] == 10
        assert payload["rates"]["crash"] == pytest.approx(0.4)

    def test_save_and_load(self, tmp_path):
        path = save_json(tmp_path / "sub" / "result.json", {"a": 1, "b": [1, 2]})
        assert path.exists()
        assert load_json(path) == {"a": 1, "b": [1, 2]}

    def test_campaign_serialization(self, tmp_path):
        from repro.faultinject.campaign import CampaignConfig, run_campaign
        from repro.faultinject.registers import RegKind
        from tests.faultinject.test_monitor_campaign import toy_workload
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        output = toy_workload(ctx)
        campaign = run_campaign(
            toy_workload,
            output,
            ctx.cycles,
            CampaignConfig(n_injections=10, kind=RegKind.GPR, seed=1),
        )
        payload = campaign_to_dict(campaign)
        assert payload["n_injections"] == 10
        assert len(payload["records"]) == 10
        # Must be valid JSON end to end.
        json.dumps(payload)

    def test_markdown_table(self):
        table = markdown_table(["name", "value"], [["a", 1.23456], ["b", 2]])
        lines = table.splitlines()
        assert lines[0] == "| name | value |"
        assert "1.235" in lines[2]
        assert len(lines) == 4

    def test_markdown_table_escapes_pipes(self):
        table = markdown_table(["a|b", "value"], [["x|y", "plain"]])
        lines = table.splitlines()
        # Escaped pipes must not add table columns.
        assert lines[0] == "| a\\|b | value |"
        assert lines[2] == "| x\\|y | plain |"
        assert all(line.count(" | ") == 1 for line in (lines[0], lines[2]))

    def test_markdown_table_escapes_newlines(self):
        table = markdown_table(["h"], [["one\ntwo"], ["crlf\r\nend"], ["cr\rend"]])
        lines = table.splitlines()
        # Every cell stays on its own table row.
        assert len(lines) == 5
        assert lines[2] == "| one<br>two |"
        assert lines[3] == "| crlf<br>end |"
        assert lines[4] == "| cr<br>end |"


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summarize_command(self, tmp_path, capsys):
        out = tmp_path / "pano.pgm"
        code = main(["summarize", "--input", "input2", "--frames", "8", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "stitched=" in capsys.readouterr().out

    def test_campaign_command(self, tmp_path, capsys):
        record = tmp_path / "campaign.json"
        code = main(
            [
                "campaign",
                "--input",
                "input2",
                "--frames",
                "8",
                "-n",
                "6",
                "--out",
                str(record),
            ]
        )
        assert code == 0
        payload = load_json(record)
        assert payload["n_injections"] == 6
        assert "mask" in capsys.readouterr().out

    def test_experiment_command(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        code = main(["experiment", "fig08", "--scale", "tiny"])
        assert code == 0
        assert "fig08" in capsys.readouterr().out
        assert "REPRO_SCALE" not in os.environ

    def test_experiment_scale_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(["experiment", "fig08", "--scale", "tiny"]) == 0
        assert "fig08 at scale tiny: done" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "-n", "-3"],
            ["campaign", "-n", "0"],
            ["campaign", "--frames", "0"],
            ["summarize", "--frames", "-2"],
            ["protect", "-n", "0"],
            ["protect", "--frames", "-1"],
            ["events", "--frames", "0"],
            ["events", "--objects", "-1"],
        ],
    )
    def test_non_positive_counts_rejected(self, argv, capsys):
        """Injection, frame and object counts below one exit 2 with
        argparse's message, before anything runs."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: must be a positive integer, got {argv[2]!r}" in err
