"""Zero-dependency observatory endpoints: ``/status`` and ``/metrics``.

:class:`ObservatoryServer` wraps a stdlib :class:`http.server` instance
on a daemon thread.  ``/status`` serves the live JSON snapshot from a
:class:`~repro.observe.status.StatusWriter`; ``/metrics`` renders the
same writer's snapshot and its registry fold of the event stream in the
Prometheus text exposition format.  Requests never touch campaign
state — the handler reads immutable snapshots — so serving cannot
perturb results.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.observe.status import STATUS_COUNTERS, StatusWriter


def _sanitize(name: str) -> str:
    """Metric-name charset for Prometheus: ``[a-zA-Z0-9_]``."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def render_prometheus(
    status: dict | None, metrics_snapshot: dict | None
) -> str:
    """Prometheus text exposition of status + registry metrics.

    Output is deterministic (sorted keys) so CI can diff it.  Each
    quantity is one series: registry counters the status snapshot
    already shows (:data:`~repro.observe.status.STATUS_COUNTERS`) are
    rendered under their status name only.
    """
    lines: list[str] = []
    shown: set[str] = set()
    if status is not None:
        progress = status.get("progress", {})
        done = progress.get("done", 0)
        total = progress.get("total")
        lines.append("# TYPE repro_campaign_injections_done gauge")
        lines.append(f"repro_campaign_injections_done {done}")
        if isinstance(total, int):
            lines.append("# TYPE repro_campaign_injections_total gauge")
            lines.append(f"repro_campaign_injections_total {total}")
        rates = status.get("outcomes", {}).get("rates", {})
        for outcome in sorted(rates):
            entry = rates[outcome]
            lines.append(
                f'repro_campaign_outcome_count{{outcome="{outcome}"}} '
                f"{entry.get('count', 0)}"
            )
            lines.append(
                f'repro_campaign_outcome_rate{{outcome="{outcome}"}} '
                f"{entry.get('rate', 0.0)}"
            )
        for counter in sorted(status.get("counters", {})):
            value = status["counters"][counter]
            lines.append(f"repro_campaign_{_sanitize(counter)}_total {value}")
        shown = set(STATUS_COUNTERS.values())
        state = status.get("state", "unknown")
        lines.append(f'repro_campaign_state{{state="{state}"}} 1')
    if metrics_snapshot is not None:
        for name in sorted(metrics_snapshot.get("counters", {})):
            if name in shown:
                continue
            value = metrics_snapshot["counters"][name]
            lines.append(f"repro_{_sanitize(name)}_total {value}")
        for name in sorted(metrics_snapshot.get("gauges", {})):
            value = metrics_snapshot["gauges"][name]
            lines.append(f"repro_{_sanitize(name)} {value}")
        for name in sorted(metrics_snapshot.get("timers", {})):
            timer = metrics_snapshot["timers"][name]
            base = f"repro_{_sanitize(name)}"
            lines.append(f"{base}_seconds_total {timer.get('total_s', 0.0)}")
            lines.append(f"{base}_count {timer.get('count', 0)}")
    return "\n".join(lines) + "\n"


class ObservatoryServer:
    """A daemon-thread HTTP server over one :class:`StatusWriter`."""

    def __init__(self, status_writer: StatusWriter, host: str = "127.0.0.1", port: int = 0):
        self.status_writer = status_writer
        observatory = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?", 1)[0] == "/status":
                    body = json.dumps(
                        observatory.status_writer.snapshot(), sort_keys=True
                    ).encode("utf-8")
                    self._reply(200, "application/json", body)
                elif self.path.split("?", 1)[0] == "/metrics":
                    body = observatory.render_metrics().encode("utf-8")
                    self._reply(200, "text/plain; version=0.0.4", body)
                else:
                    self._reply(404, "text/plain", b"not found\n")

            def _reply(self, code: int, content_type: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                # Never write request logs onto the campaign's stdout.
                pass

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-observatory", daemon=True
        )

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def render_metrics(self) -> str:
        """The ``/metrics`` body: status + the writer's registry fold."""
        writer = self.status_writer
        return render_prometheus(writer.snapshot(), writer.metrics.snapshot())

    def start(self) -> "ObservatoryServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
