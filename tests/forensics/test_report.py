"""Tests for deterministic reports and cross-campaign regression diffs."""

from __future__ import annotations

import pytest

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.registers import RegKind
from repro.forensics.report import (
    diff_records,
    render_diff,
    render_report,
    two_proportion_z,
)
from repro.forensics.store import build_record
from repro.runtime.context import ExecutionContext
from repro.runtime.errors import SegmentationFault

from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload


@pytest.fixture(scope="module")
def toy_record():
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    campaign = run_campaign(
        toy_workload,
        golden,
        cycles,
        CampaignConfig(
            n_injections=60, kind=RegKind.GPR, seed=9, probe=True, keep_sdc_outputs=True
        ),
    )
    return build_record(campaign, golden_output=golden, label="baseline"), golden


def _crashier_workload(ctx: ExecutionContext):
    """A 'regression': every injected run dies with a memory fault."""
    toy_workload(ctx)
    raise SegmentationFault(0, "regressed build always faults")


@pytest.fixture(scope="module")
def regressed_record(toy_record):
    _, golden = toy_record
    spec = ToyWorkloadSpec()
    cycles = spec.build().golden_cycles
    campaign = run_campaign(
        _crashier_workload,
        golden,
        cycles,
        CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=31),
    )
    return build_record(campaign, label="regressed")


class TestRenderReport:
    def test_byte_deterministic_across_formats(self, toy_record):
        record, _ = toy_record
        for fmt in ("terminal", "markdown", "html"):
            assert render_report(record, fmt, cid="abc") == render_report(
                record, fmt, cid="abc"
            )

    def test_sections_present(self, toy_record):
        record, _ = toy_record
        text = render_report(record, "terminal", cid="abc")
        assert "Campaign report abc" in text
        assert "Outcome rates (Wilson 95% CI)" in text
        assert "Heatmap: sdc by register x bit octet" in text
        assert "Divergence flow" in text
        assert "Pipeline reach" in text

    def test_markdown_renders_tables(self, toy_record):
        record, _ = toy_record
        text = render_report(record, "markdown")
        assert "## Outcome rates (Wilson 95% CI)" in text
        assert "| outcome | count | rate | ci_low | ci_high |" in text

    def test_html_is_escaped_document(self, toy_record):
        record, _ = toy_record
        text = render_report(dict(record, label="<b>evil</b>"), "html")
        assert text.startswith("<!DOCTYPE html>")
        assert "<b>evil</b>" not in text
        assert "&lt;b&gt;evil&lt;/b&gt;" in text

    def test_unknown_format_rejected(self, toy_record):
        record, _ = toy_record
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(record, "pdf")


class TestTwoProportionZ:
    def test_degenerate_inputs(self):
        assert two_proportion_z(0, 0, 5, 10) == 0.0
        assert two_proportion_z(0, 10, 0, 10) == 0.0
        assert two_proportion_z(10, 10, 10, 10) == 0.0

    def test_large_shift_is_significant(self):
        assert abs(two_proportion_z(50, 100, 10, 100)) > 1.96

    def test_symmetric(self):
        assert two_proportion_z(30, 100, 10, 100) == pytest.approx(
            -two_proportion_z(10, 100, 30, 100)
        )


class TestDiff:
    def test_identical_records_are_quiet(self, toy_record):
        record, _ = toy_record
        diff = diff_records(record, record)
        assert diff["flagged"] == []
        assert all(row["z"] == 0.0 for row in diff["rows"])
        text = render_diff(diff, "terminal", cid_a="a", cid_b="a")
        assert "no statistically significant shifts" in text

    def test_injected_regression_is_flagged(self, toy_record, regressed_record):
        record, _ = toy_record
        diff = diff_records(record, regressed_record)
        assert "outcome:crash" in diff["flagged"]
        flagged_row = next(r for r in diff["rows"] if r["metric"] == "outcome:crash")
        assert flagged_row["rate_b"] == 1.0
        assert flagged_row["z"] > 1.96
        text = render_diff(diff, "terminal", cid_a="a", cid_b="b")
        assert "SHIFT" in text
        assert "significant shift(s)" in text

    def test_divergence_rates_compared_only_when_both_probed(
        self, toy_record, regressed_record
    ):
        record, _ = toy_record
        # regressed_record is unprobed: only outcome metrics compared.
        diff = diff_records(record, regressed_record)
        assert all(row["metric"].startswith("outcome:") for row in diff["rows"])
        both = diff_records(record, record)
        assert any(
            row["metric"].startswith("first_divergence:") for row in both["rows"]
        )

    def test_diff_render_deterministic(self, toy_record):
        record, _ = toy_record
        diff = diff_records(record, record)
        for fmt in ("terminal", "markdown", "html"):
            assert render_diff(diff, fmt) == render_diff(diff, fmt)
