"""Tests for the observatory endpoints and Prometheus rendering."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.observe.events import EventBus
from repro.observe.server import ObservatoryServer, render_prometheus, _sanitize
from repro.observe.status import StatusWriter, validate_status


def _writer_with_progress() -> StatusWriter:
    bus = EventBus()
    writer = StatusWriter()
    bus.subscribe(writer)
    bus.publish("campaign_start", {"mode": "uniform", "kind": "gpr", "total": 40})
    bus.publish("chunk_done", {"done": 10, "outcomes": {"mask": 8, "sdc": 2}})
    bus.publish("retry", {"attempt": 1})
    return writer


class TestRenderPrometheus:
    def test_campaign_series(self):
        text = render_prometheus(_writer_with_progress().snapshot(), None)
        assert "repro_campaign_injections_done 10" in text
        assert "repro_campaign_injections_total 40" in text
        assert 'repro_campaign_outcome_count{outcome="sdc"} 2' in text
        assert 'repro_campaign_outcome_rate{outcome="mask"} 0.8' in text
        assert "repro_campaign_retries_total 1" in text
        assert 'repro_campaign_state{state="running"} 1' in text

    def test_telemetry_series(self):
        snapshot = {
            "counters": {"campaign.retries": 2},
            "gauges": {"trace.event_cap": 250000.0},
            "timers": {"span.vision.orb": {"count": 3, "total_s": 1.5, "max_s": 0.9}},
        }
        text = render_prometheus(None, snapshot)
        assert "repro_campaign_retries_total 2" in text
        assert "repro_trace_event_cap 250000.0" in text
        assert "repro_span_vision_orb_seconds_total 1.5" in text
        assert "repro_span_vision_orb_count 3" in text

    def test_deterministic_for_equal_inputs(self):
        status = _writer_with_progress().snapshot()
        assert render_prometheus(status, None) == render_prometheus(status, None)

    def test_sanitize(self):
        assert _sanitize("span.vision-orb/2") == "span_vision_orb_2"


class TestObservatoryServer:
    @pytest.fixture()
    def server(self):
        writer = _writer_with_progress()
        server = ObservatoryServer(writer, port=0).start()
        yield server
        server.stop()

    def _get(self, server, path):
        with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
            return response.status, response.headers.get("Content-Type"), response.read()

    def test_status_endpoint_serves_schema_valid_json(self, server):
        code, content_type, body = self._get(server, "/status")
        assert code == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert validate_status(payload) == []
        assert payload["progress"]["done"] == 10

    def test_metrics_endpoint_serves_prometheus_text(self, server):
        code, content_type, body = self._get(server, "/metrics")
        assert code == 200
        assert content_type.startswith("text/plain")
        assert b"repro_campaign_injections_done 10" in body

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_ephemeral_port_is_bound(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")


class TestSingleFold:
    def test_metrics_series_never_repeat_with_tracing_on(self, tmp_path):
        """A traced, served campaign with a worker retry: each series once.

        The status counters and the registry fold the same events; the
        exposition must still name every sample (name + labels) once.
        """
        from repro import telemetry
        from repro.faultinject.campaign import CampaignConfig, run_campaign
        from repro.faultinject.registers import RegKind
        from repro.observe.session import observe_campaign
        from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload
        from tests.faultinject.test_resilience import FAST_RETRY, KillOnceSpec

        state = ToyWorkloadSpec().build()

        golden, cycles = state.golden_output, state.golden_cycles
        telemetry.enable()
        try:
            with observe_campaign(None, serve=True) as session:
                run_campaign(
                    toy_workload,
                    golden,
                    cycles,
                    CampaignConfig(
                        n_injections=30, kind=RegKind.GPR, seed=5, workers=3, retry=FAST_RETRY
                    ),
                    spec=KillOnceSpec(str(tmp_path / "killed-once")),
                )
                text = session.server.render_metrics()
        finally:
            telemetry.disable()
        samples = [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples)), sorted(
            name for name in samples if samples.count(name) > 1
        )
        assert "repro_campaign_retries_total" in samples
        assert "repro_campaign_runs_total" in samples  # worker counters arrive
