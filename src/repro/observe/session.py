"""The one-call wiring for an observed campaign.

:func:`observe_campaign` installs an event bus — carrying over the
subscribers of the bus it replaces, so a tracer keeps seeing the
campaign — subscribes the status writer and flight recorder, optionally
starts the HTTP observatory, and guarantees teardown: terminal status
state and a final status flush, post-mortem flight dump on anomalies,
server shutdown, previous bus restored.  The
campaign engine itself never imports this module — observation is
wired entirely from the outside (CLI, tests), which is what keeps
observed and unobserved campaigns bit-identical.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator

from repro.observe import events
from repro.observe.recorder import FlightRecorder
from repro.observe.server import ObservatoryServer
from repro.observe.status import StatusWriter
from repro.telemetry.progress import resolve_heartbeat_interval

#: Environment one-flag: a path enables status snapshots campaign-wide.
STATUS_ENV = "REPRO_STATUS"


class ObserveSession:
    """Handles for the live observation layers of one campaign."""

    def __init__(
        self,
        bus: events.EventBus,
        status: StatusWriter,
        recorder: FlightRecorder,
        server: ObservatoryServer | None,
        flight_path: Path | None,
    ) -> None:
        self.bus = bus
        self.status = status
        self.recorder = recorder
        self.server = server
        self.flight_path = flight_path
        self.flight_dumped: Path | None = None

    def dump_flight(self) -> Path | None:
        """Write the flight-recorder ring (once) if a path is known."""
        if self.flight_path is None or self.flight_dumped is not None:
            return self.flight_dumped
        self.flight_dumped = self.recorder.dump(self.flight_path)
        return self.flight_dumped


def resolve_status_path(flag_value: str | None) -> str | None:
    """CLI flag beats the ``REPRO_STATUS`` environment variable."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(STATUS_ENV)
    return env if env else None


def default_flight_path(status_path: str | os.PathLike | None) -> Path | None:
    """Flight dumps land next to the status file by default."""
    if status_path is None:
        return None
    status_path = Path(status_path)
    return status_path.with_name(status_path.stem + ".flightrec.jsonl")


@contextlib.contextmanager
def observe_campaign(
    status_path: str | os.PathLike | None = None,
    *,
    serve: bool = False,
    serve_host: str = "127.0.0.1",
    serve_port: int = 0,
    flight_path: str | os.PathLike | None = None,
    flight_capacity: int | None = None,
    heartbeat_interval: float | None = None,
) -> Iterator[ObserveSession]:
    """Observe every campaign run inside the ``with`` block.

    On a clean exit the status file reaches ``finished`` and the flight
    recorder dumps only if it saw trigger events (hangs, retries).  On
    an exception — including ``KeyboardInterrupt`` and the journal's
    ``CampaignInterrupted`` — an ``interrupt`` event is published, the
    status file reaches ``interrupted``, the ring is dumped, and the
    exception propagates unchanged.  Routine events rewrite the status
    file at most once per ``heartbeat_interval`` (the heartbeat cadence
    when None).
    """
    previous = events.current()
    bus = events.install(
        events.EventBus(previous.subscribers if previous is not None else ())
    )
    status = StatusWriter(
        status_path, interval_s=resolve_heartbeat_interval(heartbeat_interval)
    )
    recorder = (
        FlightRecorder(flight_capacity)
        if flight_capacity is not None
        else FlightRecorder()
    )
    bus.subscribe(status)
    bus.subscribe(recorder)
    status.write()
    server = None
    if serve:
        server = ObservatoryServer(status, host=serve_host, port=serve_port).start()
    resolved_flight = (
        Path(flight_path) if flight_path is not None else default_flight_path(status_path)
    )
    session = ObserveSession(bus, status, recorder, server, resolved_flight)
    try:
        yield session
    except BaseException as exc:
        bus.publish("interrupt", {"error": type(exc).__name__})
        session.dump_flight()
        raise
    else:
        if status.state not in ("finished", "interrupted"):
            status.mark("finished")
        if recorder.triggered:
            session.dump_flight()
    finally:
        status.flush()
        if server is not None:
            server.stop()
        events.restore(previous)
