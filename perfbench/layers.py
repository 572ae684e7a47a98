"""Per-layer measurement for the benchmark's traced runs.

Every layer is timed from outside: :class:`Recorder` replaces a public
function *at the binding its caller looks up* with a timing wrapper.  A
function imported with ``from module import name`` is looked up in the
importing module, so wrapping the defining module alone would miss it
and silently report zero calls; :data:`PREDICTIONS` catches that.

Wrappers keep a stack of child time, so each stat carries both total
and self time (total minus the time spent in wrapped callees).

Program-side numbers come from the existing ``repro.telemetry`` timers
and counters, read through ``telemetry.enable()``; their metric names
start with ``program.``.  No span is added inside ``src/``.
"""

from __future__ import annotations

import functools
import pickle
import time


class Stat:
    """Calls, total and self seconds of one wrapped layer entry point."""

    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = [] if keep_durations else None


class Recorder:
    """Timing wrappers installed over the program's public functions."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._marked: dict[str, tuple[int, float]] = {}

    def patch(self, name, owner, attr, keep_durations=False, on_result=None) -> None:
        """Wrap ``owner.attr`` (a module global or a class attribute)."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(keep_durations)
        original = getattr(owner, attr)
        recorder = self
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stat.durations is not None:
                    stat.durations.append(elapsed)
            if on_result is not None:
                on_result(recorder, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def add(self, name: str, value: float = 1) -> None:
        """Add to a benchmark-side count."""
        self.counts[name] = self.counts.get(name, 0) + value

    def unpatch(self) -> None:
        """Restore every wrapped binding."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark_timed_phase(self) -> None:
        """Remember calls and total time at the end of set-up."""
        self._marked = {name: (stat.calls, stat.total_s) for name, stat in self.stats.items()}

    def timed_calls(self, name: str) -> int:
        """Calls of ``name`` since :meth:`mark_timed_phase`."""
        return self.stats[name].calls - self._marked[name][0]

    def setup_s(self, name: str) -> float:
        """Seconds inside ``name`` before :meth:`mark_timed_phase`."""
        return self._marked[name][1]


def _count_chunks(recorder: Recorder, args, result) -> None:
    recorder.add("faultinject.parallel.chunks", len(result))


def _result_bytes(recorder: Recorder, args, result) -> None:
    recorder.add("faultinject.parallel.result_bytes", len(pickle.dumps(result)))


def _count_outcome(recorder: Recorder, args, result) -> None:
    recorder.add(f"faultinject.outcome.{result.outcome.value}")


def install(recorder: Recorder) -> None:
    """Wrap every measured layer entry point at its caller's binding."""
    from repro.analysis import experiments
    from repro.faultinject import campaign, fastforward, journal, monitor, parallel
    from repro.forensics import query, store
    from repro.summarize import golden, pipeline, stitcher
    from repro.video import synthetic

    # video: experiments binds it at import; the specs import it lazily
    # from the defining module.
    recorder.patch("video.cached_input", experiments, "cached_input")
    recorder.patch("video.cached_input", synthetic, "cached_input")
    # summarize
    for module in (golden, experiments):
        recorder.patch("summarize.golden_run", module, "golden_run")
    recorder.patch("summarize.run_vs", golden, "run_vs")
    recorder.patch("summarize.run_vs", fastforward, "run_vs")
    recorder.patch("summarize.estimate_pairwise", pipeline, "estimate_pairwise")
    recorder.patch("summarize.stitch", stitcher.MiniPanorama, "add")
    # vision, at the pipeline/stitcher bindings the frame loop calls
    recorder.patch("vision.orb_features", pipeline, "orb_features")
    recorder.patch("vision.match", stitcher, "match_ratio")
    recorder.patch("vision.match", stitcher, "match_simple")
    recorder.patch("vision.ransac", stitcher, "ransac_homography")
    recorder.patch("vision.ransac", stitcher, "ransac_affine")
    # imaging
    recorder.patch("imaging.warp_into", stitcher, "warp_into")
    # faultinject.fastforward (golden_fast_forward imports capture_tape lazily)
    recorder.patch("faultinject.capture_tape", fastforward, "capture_tape")
    recorder.patch("faultinject.resume", fastforward, "run_vs_resumed")
    recorder.patch("faultinject.resume_member", fastforward.BoundaryFanOut, "resume_member")
    # faultinject.monitor
    recorder.patch(
        "faultinject.run_injected",
        monitor.FaultMonitor,
        "run_injected",
        keep_durations=True,
        on_result=_count_outcome,
    )
    # faultinject.campaign / parallel / journal
    recorder.patch("faultinject.draw_plans", campaign, "draw_plans")
    recorder.patch("faultinject.assemble_campaign", campaign, "assemble_campaign")
    recorder.patch(
        "faultinject.execute_plans_parallel",
        campaign,
        "execute_plans_parallel",
        on_result=_result_bytes,
    )
    recorder.patch("faultinject.chunking", parallel, "chunks_from_bounds", on_result=_count_chunks)
    recorder.patch("faultinject.chunking", parallel, "chunks_from_groups", on_result=_count_chunks)
    recorder.patch("faultinject.journal.append", journal.CampaignJournal, "append_chunk")
    # forensics
    recorder.patch("forensics.put", store.CampaignStore, "put", keep_durations=True)
    recorder.patch("forensics.get", store.CampaignStore, "get", keep_durations=True)
    recorder.patch("forensics.index_query", query, "index_query", keep_durations=True)


#: Program-side telemetry counters and the metric names they report as.
PROGRAM_COUNTERS = {
    "program.campaign.fanout.groups": "campaign.fanout.groups",
    "program.campaign.fanout.shared_restores": "campaign.fanout.shared_restores",
    "program.campaign.fanout.cow_clones": "campaign.fanout.cow_clones",
    "program.campaign.fanout.golden_tail": "campaign.fanout.golden_tail",
    "program.campaign.fastforward.skipped_cycles": "campaign.fastforward.skipped_cycles",
}

#: Wall-time buckets of the Fig. 8 reconciliation: measured layer ->
#: the cost-model scope prefixes whose cycles it spends.
MODEL_BUCKETS = {
    "warp": ("imaging.warp_into", ("imaging.warp",)),
    "orb_fast": ("vision.orb_features", ("vision.fast", "vision.orb", "imaging.filters")),
    "match": ("vision.match", ("vision.matching",)),
    "ransac": ("vision.ransac", ("vision.ransac",)),
}

#: Expected call pattern per workload: ">0" where the layer does work,
#: "0" where it must not be called.  Counts cover the whole traced
#: session; ``video.cached_input.timed_calls`` covers only the timed phase.
_CAMPAIGN = {"vs-campaign": ">0", "store-corpus": "0"}
_STORE = {"vs-campaign": "0", "store-corpus": ">0"}
PREDICTIONS = {
    "video.cached_input.calls": _CAMPAIGN,
    "video.cached_input.timed_calls": {"vs-campaign": "0", "store-corpus": "0"},
    "summarize.golden_run.calls": _CAMPAIGN,
    "summarize.estimate_pairwise.calls": _CAMPAIGN,
    "summarize.stitch.calls": _CAMPAIGN,
    "vision.orb_features.calls": _CAMPAIGN,
    "vision.match.calls": _CAMPAIGN,
    "vision.ransac.calls": _CAMPAIGN,
    "imaging.warp_into.calls": _CAMPAIGN,
    "program.imaging.warp.calls": _CAMPAIGN,
    "faultinject.capture_tape.calls": _CAMPAIGN,
    "faultinject.resume.calls": _CAMPAIGN,
    "faultinject.resume_member.calls": _CAMPAIGN,
    "program.campaign.fanout.groups": _CAMPAIGN,
    "program.campaign.fanout.golden_tail": _CAMPAIGN,
    "faultinject.run_injected.calls": _CAMPAIGN,
    "faultinject.draw_plans.calls": _CAMPAIGN,
    "faultinject.assemble_campaign.calls": _CAMPAIGN,
    "faultinject.execute_plans_parallel.calls": _CAMPAIGN,
    "faultinject.parallel.chunks": _CAMPAIGN,
    "faultinject.journal.append.calls": _CAMPAIGN,
    "forensics.put.calls": _STORE,
    "forensics.index_query.calls": _STORE,
}


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` (nearest rank, no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _quantile_ms(durations: list[float] | None, q: float) -> float:
    return 1000.0 * quantile(durations, q) if durations else 0.0


def layer_metrics(recorder: Recorder, registry, profiles) -> dict[str, float]:
    """Every per-layer metric of one traced session, by name.

    ``registry`` is the telemetry registry (program side); ``profiles``
    are the cost profiles of the golden runs made during set-up.
    """
    metrics: dict[str, float] = {}
    for name, stat in recorder.stats.items():
        if name == "faultinject.chunking":
            continue
        metrics[f"{name}.s"] = stat.total_s
        metrics[f"{name}.calls"] = stat.calls
    metrics["summarize.estimate_pairwise.s"] = recorder.stats["summarize.estimate_pairwise"].self_s
    metrics["video.cached_input.timed_calls"] = recorder.timed_calls("video.cached_input")
    run_injected = recorder.stats["faultinject.run_injected"].durations
    metrics["faultinject.run_injected.p50_ms"] = _quantile_ms(run_injected, 0.5)
    metrics["faultinject.run_injected.p99_ms"] = _quantile_ms(run_injected, 0.99)
    metrics["forensics.put.p99_ms"] = _quantile_ms(recorder.stats["forensics.put"].durations, 0.99)
    metrics["forensics.get.p50_ms"] = _quantile_ms(recorder.stats["forensics.get"].durations, 0.5)
    queries = recorder.stats["forensics.index_query"].durations
    metrics["forensics.index_query.p50_ms"] = _quantile_ms(queries, 0.5)
    metrics["forensics.index_query.p99_ms"] = _quantile_ms(queries, 0.99)
    for outcome in ("mask", "sdc", "crash", "hang"):
        metrics[f"faultinject.outcome.{outcome}"] = recorder.counts.get(
            f"faultinject.outcome.{outcome}", 0
        )
    for name in (
        "faultinject.parallel.chunks",
        "faultinject.parallel.result_bytes",
        "faultinject.journal.bytes",
    ):
        metrics[name] = recorder.counts.get(name, 0)

    for name, counter in PROGRAM_COUNTERS.items():
        metrics[name] = registry.counter(counter)
    warp = registry.timer("span.imaging.warp")
    metrics["program.imaging.warp.calls"] = warp[0] if warp else 0
    metrics["program.imaging.warp.s"] = warp[1] if warp else 0.0
    masked = metrics["faultinject.outcome.mask"]
    metrics["faultinject.golden_tail_ratio"] = (
        metrics["program.campaign.fanout.golden_tail"] / masked if masked else 0.0
    )

    # Fig. 8 reconciliation: measured wall share of each kernel bucket
    # in the set-up's golden and tape pipeline runs beside its modelled
    # cycle share.
    pipeline_s = recorder.setup_s("summarize.run_vs")
    total_cycles = sum(profile.total_cycles for profile in profiles)
    for bucket, (layer, prefixes) in MODEL_BUCKETS.items():
        cycles = sum(
            cycles
            for profile in profiles
            for scope, cycles in profile.by_scope().items()
            if scope.startswith(prefixes)
        )
        metrics[f"model.{bucket}.cycle_share"] = cycles / total_cycles if total_cycles else 0.0
        metrics[f"model.{bucket}.wall_share"] = (
            recorder.setup_s(layer) / pipeline_s if profiles and pipeline_s else 0.0
        )
    return metrics


def check_predictions(workload: str, metrics: dict[str, float]) -> list[str]:
    """The predicted call patterns this session broke (empty when none)."""
    broken = []
    for name, by_workload in PREDICTIONS.items():
        expected = by_workload.get(workload)
        value = metrics[name]
        if expected == ">0" and not value > 0:
            broken.append(f"{name} = {value}, predicted > 0 on {workload}")
        elif expected == "0" and value != 0:
            broken.append(f"{name} = {value}, predicted 0 on {workload}")
    return broken
