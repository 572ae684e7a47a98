"""Golden (error-free) run management.

Fault-injection campaigns need, per (algorithm, input): the golden output
image (the SDC reference), the golden cycle count (to draw uniformly
random injection cycles and to set the hang watchdog), and the execution
profile.  Golden runs are cached in-process because campaigns reuse them
across hundreds of injected runs.

One cache entry per workload holds all of it.  Campaign workloads also
need the snapshot tape, and the tape-capture run (see
:func:`repro.faultinject.fastforward.capture_tape`) *is* a golden run:
:func:`golden_with_tape` builds the entry from the capture, so a
campaign executes the clean pipeline once.  :func:`golden_run` serves
figures that need no tape (Figs. 5, 6, 8 and 13) with a plain run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.runtime.context import CostProfile, ExecutionContext
from repro.summarize.config import VSConfig
from repro.summarize.pipeline import VSResult, run_vs
from repro.video.frames import FrameStream


@dataclass
class GoldenRun:
    """The error-free reference execution of one (algorithm, input)."""

    config: VSConfig
    stream_name: str
    result: VSResult
    output: np.ndarray  # the golden output image
    total_cycles: int
    profile: CostProfile
    #: The :class:`~repro.faultinject.fastforward.FastForward` handle
    #: over this run's snapshot tape, once :func:`golden_with_tape` has
    #: captured one.  Cached with the run so boundary fan-out state
    #: hanging off the handle survives across campaigns in the process.
    fast_forward: object | None = None


@dataclass
class GoldenCacheStats:
    """Counters for golden-run cache effectiveness (tests assert on
    ``computes`` to prove entry points share golden runs).

    ``computes`` counts clean executions, plain or tape capture;
    ``hits`` counts lookups that executed nothing.
    """

    computes: int = 0
    hits: int = 0


_CACHE: dict[tuple, GoldenRun] = {}
_STATS = GoldenCacheStats()


def _cache_key(stream: FrameStream, config: VSConfig) -> tuple:
    """Cache key: the full ``(input, algorithm, scale)`` identity.

    The stream's length and frame shape are part of the key because the
    same named input exists at several experiment scales — keying on the
    name alone would silently serve a golden run from the wrong scale.
    """
    shape = stream.frame_shape if len(stream) else (0, 0)
    return (stream.name, len(stream), shape, config.name, hash(config))


def golden_run(stream: FrameStream, config: VSConfig) -> GoldenRun:
    """Run (or fetch) the golden execution for ``(config, stream)``."""
    key = _cache_key(stream, config)
    run = _CACHE.get(key)
    if run is not None:
        _STATS.hits += 1
        telemetry.counter_inc("golden.cache_hit")
        return run

    _STATS.computes += 1
    telemetry.counter_inc("golden.cache_compute")
    profile = CostProfile()
    ctx = ExecutionContext(profile=profile)
    with telemetry.span("summarize.golden", ctx=ctx):
        result = run_vs(stream, config, ctx)
    run = GoldenRun(
        config=config,
        stream_name=stream.name,
        result=result,
        output=result.panorama.copy(),
        total_cycles=ctx.cycles,
        profile=profile,
    )
    _CACHE[key] = run
    return run


def golden_with_tape(stream: FrameStream, config: VSConfig) -> GoldenRun:
    """The golden run for ``(config, stream)`` with its snapshot tape.

    Captures the tape at most once per process per workload.  With no
    cached run, the capture becomes the cached run, so a later
    :func:`golden_run` is a hit.  A plain run cached earlier keeps its
    identity and gets the tape attached, after checking the capture
    reproduced it exactly — a capture that differs would silently
    poison every restore.  A workload the recorder cannot snapshot
    falls back to the plain run, with ``fast_forward`` left ``None``.
    """
    from repro.faultinject import fastforward

    key = _cache_key(stream, config)
    run = _CACHE.get(key)
    if run is not None and run.fast_forward is not None:
        _STATS.hits += 1
        telemetry.counter_inc("golden.tape_hit")
        return run

    _STATS.computes += 1
    telemetry.counter_inc("golden.tape_capture")
    try:
        captured = fastforward.capture_tape(stream, config)
    except fastforward.SnapshotUnsupported:
        return golden_run(stream, config)
    if run is None:
        _CACHE[key] = captured
        return captured
    if captured.total_cycles != run.total_cycles or not np.array_equal(
        captured.output, run.output
    ):
        raise RuntimeError(
            "fast-forward capture diverged from the golden run "
            f"(cycles {captured.total_cycles} vs {run.total_cycles})"
        )
    run.fast_forward = captured.fast_forward
    return run


def golden_cache_stats() -> GoldenCacheStats:
    """The process-wide cache counters (reset by ``clear_golden_cache``)."""
    return _STATS


def clear_golden_cache() -> None:
    """Drop every cached golden run and worker state, and reset the counters.

    The parallel engine's per-spec worker states hold golden outputs and
    fast-forward handles taken from this cache, so they go with it.
    """
    from repro.faultinject.parallel import _WORKER_STATE

    _CACHE.clear()
    _WORKER_STATE.clear()
    _STATS.computes = 0
    _STATS.hits = 0
