"""Tests for the cross-campaign trend dashboard."""

from __future__ import annotations

import pytest

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.registers import RegKind
from repro.forensics.store import CampaignStore
from repro.forensics.synth import synthesize_record
from repro.observe.trend import build_trend, render_trend, sparkline
from repro.runtime.errors import SegmentationFault
from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload


def _crashier_workload(ctx):
    """A 'regression': every injected run dies with a memory fault."""
    toy_workload(ctx)
    raise SegmentationFault(0, "regressed build always faults")


@pytest.fixture(scope="module")
def history_store(tmp_path_factory):
    """A store holding a baseline and a crash-regressed campaign."""
    root = tmp_path_factory.mktemp("trend-store")
    spec = ToyWorkloadSpec()
    state = spec.build()
    golden, cycles = state.golden_output, state.golden_cycles
    store = CampaignStore(root)
    baseline = run_campaign(
        toy_workload,
        golden,
        cycles,
        CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=9),
    )
    regressed = run_campaign(
        _crashier_workload,
        golden,
        cycles,
        CampaignConfig(n_injections=60, kind=RegKind.GPR, seed=31),
    )
    ids = [
        store.put_campaign(baseline, label="baseline"),
        store.put_campaign(regressed, label="regressed"),
    ]
    return store, ids


class TestSparkline:
    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_all_zero_series_renders_blanks(self):
        assert sparkline([0.0, 0.0, 0.0]) == "   "

    def test_scales_to_series_maximum(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " "
        assert line[2] == "█"

    def test_deterministic(self):
        series = [0.1, 0.4, 0.2, 0.9]
        assert sparkline(series) == sparkline(series)


class TestBuildTrend:
    def test_campaigns_in_insertion_order(self, history_store):
        store, ids = history_store
        trend = build_trend(store)
        assert [campaign["id"] for campaign in trend["campaigns"]] == ids
        assert trend["campaigns"][0]["label"] == "baseline"
        assert trend["campaigns"][1]["label"] == "regressed"

    def test_rates_carry_wilson_cis(self, history_store):
        store, _ = history_store
        trend = build_trend(store)
        for campaign in trend["campaigns"]:
            for entry in campaign["rates"].values():
                assert 0.0 <= entry["ci_low"] <= entry["ci_high"] <= 1.0

    def test_injected_crash_regression_is_flagged(self, history_store):
        store, ids = history_store
        trend = build_trend(store)
        flagged = trend["flagged"]
        assert any("outcome:crash" in flag for flag in flagged)
        crash_gate = next(
            gate
            for gate in trend["gates"]
            if gate["metric"] == "outcome:crash"
        )
        assert crash_gate["pair"] == f"{ids[0]}->{ids[1]}"
        assert crash_gate["flagged"]
        assert abs(crash_gate["z"]) > trend["threshold"]
        assert crash_gate["rate_b"] > crash_gate["rate_a"]

    def test_single_campaign_has_no_gates(self, tmp_path):
        store = CampaignStore(tmp_path / "solo")
        store.put(synthesize_record(seed=9, n_injections=40))
        trend = build_trend(store)
        assert trend["gates"] == []
        assert trend["flagged"] == []


class TestRenderTrend:
    def test_byte_deterministic_across_formats(self, history_store):
        store, _ = history_store
        trend = build_trend(store)
        for fmt in ("terminal", "markdown", "html"):
            assert render_trend(trend, fmt) == render_trend(trend, fmt)

    def test_terminal_render_shows_history_and_flags(self, history_store):
        store, _ = history_store
        text = render_trend(build_trend(store))
        assert "Campaign history" in text
        assert "baseline" in text and "regressed" in text
        assert "SHIFT" in text
        assert "significant shift(s)" in text

    def test_html_render_is_a_document(self, history_store):
        store, _ = history_store
        html = render_trend(build_trend(store), "html")
        assert html.startswith("<!DOCTYPE html>") or "<html" in html
        assert "Campaign trend dashboard" in html

    def test_empty_store_renders_guidance(self, tmp_path):
        store = CampaignStore(tmp_path / "empty")
        text = render_trend(build_trend(store))
        assert "store is empty" in text
