"""Parallel campaign execution: shard injections across worker processes.

Injection runs are embarrassingly parallel — each run derives its own
RNG from ``(seed, index)`` and shares nothing with its neighbours except
the (read-only) golden reference — so a campaign's wall clock scales
with available cores.  Results never depend on the worker count:

* the plan sequence is drawn **once, in order**, from the campaign seed
  in the parent process (workers never touch the plan RNG),
* each run's injector RNG derives from ``(seed, index)`` alone,
* results are reassembled **in injection order** before statistics are
  computed, so counts, running-rate trends, histograms and SDC outputs
  are bit-identical to ``workers=1``.

Because workloads are closures over in-process state (frame streams,
golden outputs), they cannot be pickled to workers.  Instead a small
picklable :class:`WorkloadSpec` describes how to *rebuild* the workload
— workers reconstruct it once per process and cache it, so golden
outputs are shared via the spec rather than shipped with every task.

The engine is additionally **crash-safe** (see ``docs/resilience.md``):
a chunk whose worker dies (OOM kill, segfault of the interpreter) is
retried with exponential backoff and jitter under a bounded retry
budget; repeated pool failures degrade the worker count and ultimately
fall back to in-process serial execution, so a campaign finishes —
bit-identically — as long as the parent survives.  An optional
:class:`~repro.faultinject.journal.CampaignJournal` makes completed
chunks durable across *parent* crashes too, and a
:class:`~repro.faultinject.watchdog.WatchdogPolicy` hard deadline
bounds how long the parent waits on any one chunk before declaring its
worker lost.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro import telemetry
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.monitor import FaultMonitor, InjectionResult, Workload
from repro.faultinject.outcomes import HangKind
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.campaign import CampaignConfig
    from repro.faultinject.journal import CampaignJournal

#: Environment variable overriding the worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Task chunks dispatched per worker (load-balancing granularity).
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded chunk-retry behaviour for worker failures.

    A *failure* here is infrastructure-level — a worker process killed
    by the OS or a chunk exceeding its hard wall-clock deadline — never
    a workload exception (those are classified outcomes or library
    bugs, and bugs propagate unchanged on the first occurrence).

    Backoff is exponential with multiplicative jitter so a transient
    cause (memory pressure, a noisy neighbour) gets time to clear and
    retries from concurrent campaigns do not synchronize.  After
    ``degrade_after`` failures each subsequent round also halves the
    worker count — the classic response when the failure *is* the
    parallelism (OOM from too many resident golden copies).  When the
    budget is exhausted the engine falls back to in-process serial
    execution of the remaining chunks.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.25
    backoff_max_s: float = 5.0
    jitter_frac: float = 0.25
    degrade_after: int = 2

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered."""
        base = min(self.backoff_max_s, self.backoff_base_s * (2.0 ** (attempt - 1)))
        return base * (1.0 + self.jitter_frac * rng.random())


@runtime_checkable
class WorkloadSpec(Protocol):
    """A picklable recipe for rebuilding a workload in a worker process.

    Implementations must be hashable (they key the per-process cache)
    and cheap to pickle; ``build`` may be expensive — it runs once per
    worker process and its result is cached.
    """

    def build(self) -> tuple[Workload, np.ndarray, int]:
        """Return ``(workload, golden_output, golden_cycles)``."""
        ...


@dataclass(frozen=True)
class VSWorkloadSpec:
    """Spec for the VS pipeline on one synthetic input at one scale."""

    input_name: str
    config: "object"  # VSConfig; kept loose to avoid a summarize import here
    n_frames: int
    frame_size: tuple[int, int]  # (w, h), as make_input expects

    @staticmethod
    def for_stream(stream, config) -> "VSWorkloadSpec | None":
        """Build a spec for ``stream`` if it is a reconstructible input.

        Returns ``None`` for streams that ``make_input`` cannot
        regenerate (custom or transformed streams), in which case the
        campaign falls back to serial execution.
        """
        if stream.name not in ("input1", "input2") or len(stream) == 0:
            return None
        frame_h, frame_w = stream.frame_shape
        return VSWorkloadSpec(
            input_name=stream.name,
            config=config,
            n_frames=len(stream),
            frame_size=(frame_w, frame_h),
        )

    def build(self) -> tuple[Workload, np.ndarray, int]:
        """Rebuild the stream, golden run and workload closure."""
        from repro.summarize.golden import golden_run
        from repro.summarize.pipeline import run_vs
        from repro.video.synthetic import cached_input

        stream = cached_input(self.input_name, n_frames=self.n_frames, frame_size=self.frame_size)
        golden = golden_run(stream, self.config)
        config = self.config

        def workload(ctx) -> np.ndarray:
            return run_vs(stream, config, ctx).panorama

        return workload, golden.output, golden.total_cycles

    def build_fast_forward(self):
        """The fast-forward handle for this workload (or ``None``).

        Captured against the same cached input and golden run ``build``
        uses, so parent- and worker-side snapshots describe the same
        deterministic execution.
        """
        from repro.summarize.golden import golden_fast_forward
        from repro.video.synthetic import cached_input

        stream = cached_input(self.input_name, n_frames=self.n_frames, frame_size=self.frame_size)
        return golden_fast_forward(stream, self.config)


def _parse_workers(raw: str | int, source: str) -> int:
    """Validate a worker count: a base-10 integer >= 1, or ValueError."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive integer worker count, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{source} must be a positive integer worker count, got {raw!r}"
        )
    return value


def _workers_from_env() -> int | None:
    env = os.environ.get(WORKERS_ENV)
    if env is None or env == "":
        return None
    return _parse_workers(env, WORKERS_ENV)


def resolve_workers(requested: int | None = None, max_useful: int | None = None) -> int:
    """Resolve an explicit or configured worker count.

    An explicit ``requested`` wins (and must be >= 1 — zero and negative
    counts are rejected with a clear error rather than silently clamped);
    otherwise ``REPRO_WORKERS`` from the environment; otherwise 1 (the
    conservative library default — entry points that want machine-wide
    fan-out use :func:`default_workers`).

    ``max_useful`` (when given, the number of planned injections) caps
    the result: spawning eight processes for a three-injection campaign
    only buys three idle workers' startup cost.  Validation still runs
    first, so a malformed request fails loudly rather than being hidden
    by the clamp.
    """
    if requested is not None:
        workers = _parse_workers(requested, "workers")
    else:
        env_workers = _workers_from_env()
        workers = env_workers if env_workers is not None else 1
    if max_useful is not None and max_useful >= 1:
        workers = min(workers, max_useful)
    return workers


def default_workers() -> int:
    """The cpu-count-aware default for CLI/bench fan-out."""
    env_workers = _workers_from_env()
    if env_workers is not None:
        return env_workers
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-process cache: spec -> (workload, golden_output, golden_cycles).
#: Shared by all chunks a worker executes, so the golden output is
#: materialized once per process, not once per task.
_WORKER_STATE: dict[WorkloadSpec, tuple[Workload, np.ndarray, int]] = {}


def _workload_state(spec: WorkloadSpec) -> tuple[Workload, np.ndarray, int]:
    state = _WORKER_STATE.get(spec)
    if state is None:
        state = spec.build()
        _WORKER_STATE[spec] = state
    return state


#: Per-process cache: spec -> FastForward handle (or None when the spec
#: offers no tape).
_WORKER_FF: dict[WorkloadSpec, object] = {}


def clear_fast_forward_cache() -> None:
    """Drop this process's cached fast-forward handles (test isolation).

    Called from :func:`repro.summarize.golden.clear_golden_cache`: the
    handles wrap tapes captured against golden runs, so clearing one
    without the other would leave handles over stale tapes.
    """
    _WORKER_FF.clear()


def fast_forward_for(spec: WorkloadSpec | None, config: "CampaignConfig | None" = None):
    """The (cached) fast-forward handle for ``spec``'s workload.

    Returns ``None`` when there is no spec to rebuild a tape from
    (custom workload closures run in full) or when the spec does not
    support snapshotting (the WP workload).  The handle does not depend
    on ``config``; the parameter is accepted for existing callers.
    """
    if spec is None:
        return None
    builder = getattr(spec, "build_fast_forward", None)
    if builder is None:
        return None
    if spec not in _WORKER_FF:
        _WORKER_FF[spec] = builder()
    return _WORKER_FF[spec]


def monitor_for(
    workload: Workload,
    golden_output: np.ndarray,
    golden_cycles: int,
    config: "CampaignConfig",
    fast_forward=None,
) -> FaultMonitor:
    """A fault monitor configured exactly as the campaign prescribes."""
    return FaultMonitor(
        workload,
        golden_output,
        golden_cycles,
        hang_factor=config.hang_factor,
        liveness=config.liveness,
        site_filter=config.site_filter,
        keep_sdc_outputs=config.keep_sdc_outputs,
        watchdog=config.watchdog,
        probe=config.probe,
        fast_forward=fast_forward,
    )


def run_chunk_on_monitor(
    monitor: FaultMonitor,
    config: "CampaignConfig",
    chunk: list[tuple[int, InjectionPlan]],
) -> list[InjectionResult]:
    """Execute one chunk of ``(index, plan)`` pairs on ``monitor``.

    The single source of the per-run RNG derivation — worker and
    in-process execution both run chunks through here, which is what
    makes their results interchangeable bit for bit.
    """
    results = []
    for index, plan in chunk:
        run_rng = np.random.default_rng((config.seed + 1) * 1_000_003 + index)
        results.append(monitor.run_injected(plan, run_rng))
    return results


def run_injection_chunk(
    spec: WorkloadSpec,
    config: "CampaignConfig",
    chunk: list[tuple[int, InjectionPlan]],
) -> list[InjectionResult]:
    """Execute one chunk of ``(index, plan)`` pairs in this process.

    The module-level entry point workers import; also usable in-process
    (the tests go through the same code).
    """
    workload, golden_output, golden_cycles = _workload_state(spec)
    monitor = monitor_for(
        workload,
        golden_output,
        golden_cycles,
        config,
        fast_forward=fast_forward_for(spec, config),
    )
    return run_chunk_on_monitor(monitor, config, chunk)


def run_injection_chunk_metered(
    spec: WorkloadSpec,
    config: "CampaignConfig",
    chunk: list[tuple[int, InjectionPlan]],
) -> tuple[list[InjectionResult], dict]:
    """Like :func:`run_injection_chunk`, plus this chunk's metric snapshot.

    A fresh tracer is swapped in for the chunk's duration, so the
    returned snapshot covers exactly this chunk's activity (stage
    timers, outcome counters, golden-cache counters) regardless of what
    a forked worker inherited from the parent.  The parent merges the
    snapshots in chunk order, which makes the aggregated registry
    deterministic for a fixed chunking.
    """
    fresh, previous = telemetry.swap_in_fresh_tracer()
    try:
        results = run_injection_chunk(spec, config, chunk)
    finally:
        telemetry.restore_tracer(previous)
    return results, fresh.registry.snapshot()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def contiguous_groups(n_plans: int, workers: int) -> list[list[int]]:
    """Deterministic contiguous plan-index groups for tapeless workloads.

    A pure function of ``(n_plans, workers)``: about
    ``CHUNKS_PER_WORKER`` groups per worker, never empty.
    """
    if n_plans <= 0:
        return []
    n_chunks = min(n_plans, max(1, workers) * CHUNKS_PER_WORKER)
    edges = np.linspace(0, n_plans, n_chunks + 1).astype(int)
    return [
        list(range(start, stop))
        for start, stop in zip(edges[:-1].tolist(), edges[1:].tolist())
        if stop > start
    ]


# No caller in src/; perfbench/layers.py patches it by name, so it stays for now.
def chunks_from_bounds(
    plans: list[InjectionPlan],
    bounds: list[tuple[int, int]],
    index_base: int = 0,
) -> list[list[tuple[int, InjectionPlan]]]:
    """Materialize the indexed plan chunks for contiguous boundaries."""
    indexed = list(enumerate(plans, start=index_base))
    return [indexed[start:stop] for start, stop in bounds]


def group_plan_indices(
    boundary_index_for: Callable[[int], int | None],
    plans: list[InjectionPlan],
) -> list[list[int]]:
    """Partition plan indices by the frame boundary they resume from.

    All plans whose target cycle fast-forwards from the same golden
    frame boundary form one group, so a worker materializes that
    boundary's restore once and fans every member out of it.  Plans
    with no eligible boundary (targets before the first skippable
    frame) share a single group of full runs.

    Deterministic and order-preserving: groups are emitted in order of
    their first member's plan index, and members within a group keep
    ascending plan index.  The flattened groups are a permutation of
    ``range(len(plans))``.
    """
    members: dict[int | None, list[int]] = {}
    for index, plan in enumerate(plans):
        boundary = boundary_index_for(plan.target_cycle)
        members.setdefault(boundary, []).append(index)
    return sorted(members.values(), key=lambda group: group[0])


def plan_groups(
    spec: WorkloadSpec | None,
    config: "CampaignConfig",
    plans: list[InjectionPlan],
) -> tuple[list[list[int]], int]:
    """The campaign's dispatch groups and the worker count serving them.

    Groups are the scheduler's only unit: each is executed whole by one
    worker and checkpointed as one journal chunk.  With a snapshot tape
    they are the plans' resume boundaries (:func:`group_plan_indices`);
    tapeless workloads (the WP spec, spec-less closures) get contiguous
    index ranges (:func:`contiguous_groups`), so they keep their pool
    parallelism.  The worker count is clamped to the group count —
    more workers than groups only buys idle pool startup.  The journal
    records the groups verbatim, so a resume replays the exact original
    dispatch.
    """
    ff = fast_forward_for(spec, config)
    if ff is not None:
        groups = group_plan_indices(ff.boundary_index_for, plans)
    else:
        workers = resolve_workers(config.workers, max_useful=len(plans))
        groups = contiguous_groups(len(plans), workers)
    return groups, resolve_workers(config.workers, max_useful=len(groups))


def chunks_from_groups(
    plans: list[InjectionPlan],
    groups: list[list[int]],
    index_base: int = 0,
) -> list[list[tuple[int, InjectionPlan]]]:
    """Materialize indexed plan chunks, one chunk per group.

    Group members are local plan positions; ``index_base`` offsets only
    the RNG index carried alongside each plan: stratified campaigns
    execute plans round by round, and each round's runs must continue
    the campaign-global ``(seed, index)`` derivation rather than
    restart it at zero.
    """
    return [
        [(index_base + index, plans[index]) for index in group] for group in groups
    ]


def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's workers (a chunk blew its hard deadline).

    ``ProcessPoolExecutor`` has no public kill switch — ``shutdown``
    joins workers, which would block on the stuck one forever — so this
    reaches into the private process table.  Guarded defensively: if
    the attribute moves, the engine degrades to waiting (correct, just
    slower).
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


class _ChunkCollector:
    """Secures completed chunks: results, telemetry snapshot, journal.

    ``progress`` is reported as the cumulative injection count over all
    secured chunks (journal-replayed ones included), and snapshots are
    merged into the parent tracer at :meth:`finish` in ascending chunk
    order so the aggregated metrics stay deterministic no matter what
    order retries completed in.
    """

    def __init__(
        self,
        tracer,
        journal: "CampaignJournal | None",
        progress: Callable[[int], None] | None,
        completed: dict[int, list[InjectionResult]],
        done_base: int = 0,
    ) -> None:
        self.tracer = tracer
        self.journal = journal
        self.progress = progress
        # Injections secured before this collector existed (stratified
        # rounds call the executor once per round): offsets the ``done``
        # totals events report, never the progress callback.
        self.done_base = done_base
        self.results_by_chunk: dict[int, list[InjectionResult]] = dict(completed)
        self.snapshots: dict[int, dict] = {}

    @property
    def injections_done(self) -> int:
        return sum(len(results) for results in self.results_by_chunk.values())

    def secure(self, chunk_index: int, chunk_result) -> None:
        """Record one freshly executed chunk (journal before reporting)."""
        if self.tracer is not None:
            results, snapshot = chunk_result
            self.snapshots[chunk_index] = snapshot
        else:
            results = chunk_result
        self.results_by_chunk[chunk_index] = results
        if self.journal is not None:
            # Durability first: only a journaled chunk counts as done.
            # May raise CampaignInterrupted (the abort-after test hook).
            self.journal.append_chunk(chunk_index, results)
        if observe_events.enabled():
            # Tallies are computed only when someone is listening, so
            # the unobserved hot path stays one None check per chunk.
            outcomes: dict[str, int] = {}
            watchdog_hangs = 0
            for result in results:
                outcomes[result.outcome.value] = outcomes.get(result.outcome.value, 0) + 1
                if result.hang_kind is HangKind.WATCHDOG:
                    watchdog_hangs += 1
            observe_events.emit(
                "chunk_done",
                index=chunk_index,
                size=len(results),
                done=self.done_base + self.injections_done,
                outcomes=outcomes,
            )
            if watchdog_hangs:
                observe_events.emit(
                    "watchdog_hang", index=chunk_index, count=watchdog_hangs
                )
        if self.progress is not None:
            self.progress(self.injections_done)

    def finish(self, n_chunks: int) -> list[InjectionResult]:
        """Merge telemetry in chunk order and flatten results in order."""
        if self.tracer is not None:
            for chunk_index in sorted(self.snapshots):
                self.tracer.registry.merge_snapshot(self.snapshots[chunk_index])
        assert sorted(self.results_by_chunk) == list(range(n_chunks))
        return [
            result
            for chunk_index in range(n_chunks)
            for result in self.results_by_chunk[chunk_index]
        ]


def execute_plans_parallel(
    spec: WorkloadSpec | None,
    config: "CampaignConfig",
    plans: list[InjectionPlan],
    workers: int,
    progress: Callable[[int], None] | None = None,
    *,
    groups: list[list[int]],
    local_state: tuple[Workload, np.ndarray, int] | None = None,
    completed: dict[int, list[InjectionResult]] | None = None,
    journal: "CampaignJournal | None" = None,
    annotate: Callable[[str], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    index_base: int = 0,
) -> list[InjectionResult]:
    """Run all plans, in injection order, surviving worker failures.

    Each group of plan indices (see :func:`plan_groups`) is one chunk:
    it lands whole on one worker, shares its boundary restore there, and
    is journaled as one record.  With a spec and more than one worker
    the chunks go to a process pool and are drained in chunk order;
    otherwise they run in-process through the same chunk runner.
    Infrastructure failures — a worker killed by the OS
    (``BrokenProcessPool``) or a chunk exceeding its hard wall-clock
    deadline — never abort the campaign: already-finished chunks are
    swept from the broken pool, the remainder is retried under
    ``config.retry`` (exponential backoff + jitter, bounded attempts,
    worker-count degradation), and once the budget is exhausted the
    remaining chunks run in-process serially.  Workload exceptions that
    the monitor does not classify still propagate unchanged — those are
    library bugs, not infrastructure.

    ``completed`` chunks (from a journal replay) are skipped;
    ``journal`` makes each newly finished chunk durable before it is
    counted.  Results are flattened back into plan-index order, so the
    output is a plain in-order result list.  ``index_base`` offsets the
    per-run RNG index without shifting group positions — stratified
    campaigns use it so each round continues the campaign-global
    ``(seed, index)`` derivation.

    When telemetry is enabled, each chunk returns a worker-side metric
    snapshot; snapshots are merged into the parent tracer **in chunk
    order** at the end, so the aggregated metrics are deterministic
    regardless of retry scheduling.  ``progress``, when given, receives
    the cumulative number of completed injections; ``annotate`` receives
    human-readable notes about retries and degradation (wired to the
    heartbeat by the campaign driver).
    """
    chunks = chunks_from_groups(plans, groups, index_base=index_base)
    if not chunks:
        return []
    retry = config.retry if config.retry is not None else RetryPolicy()
    watchdog = config.watchdog
    tracer = telemetry.get_tracer()
    chunk_fn = run_injection_chunk_metered if tracer is not None else run_injection_chunk
    collector = _ChunkCollector(
        tracer,
        journal,
        progress,
        completed or {},
        done_base=index_base,
    )
    if collector.results_by_chunk and progress is not None:
        progress(collector.injections_done)

    pending = [i for i in range(len(chunks)) if i not in collector.results_by_chunk]
    # Jitter RNG: timing-only, never touches result determinism.
    jitter_rng = random.Random(config.seed ^ 0x5EED)
    pool_workers = min(workers, len(pending)) if pending else workers
    attempt = 0

    while pending and spec is not None and pool_workers > 1:
        pool = ProcessPoolExecutor(max_workers=pool_workers)
        try:
            futures = {
                index: pool.submit(chunk_fn, spec, config, chunks[index])
                for index in pending
            }
            for index in list(pending):
                deadline = (
                    watchdog.chunk_deadline(len(chunks[index]))
                    if watchdog is not None
                    else None
                )
                collector.secure(index, futures[index].result(timeout=deadline))
                pending.remove(index)
            pool.shutdown(wait=True)
            break
        except (BrokenProcessPool, TimeoutError) as exc:
            # Salvage chunks that finished before the failure, then
            # retry the rest (the failed chunk re-runs from scratch —
            # per-run RNGs derive from (seed, index), so a re-run is
            # bit-identical to a first run).
            if isinstance(exc, TimeoutError):
                _terminate_pool_processes(pool)
            for index in list(pending):
                future = futures.get(index)
                if (
                    future is not None
                    and future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    collector.secure(index, future.result())
                    pending.remove(index)
            pool.shutdown(wait=False, cancel_futures=True)
            attempt += 1
            telemetry.counter_inc("campaign.retries")
            cause = (
                "chunk exceeded its hard deadline"
                if isinstance(exc, TimeoutError)
                else "worker process died"
            )
            observe_events.emit(
                "retry",
                attempt=attempt,
                cause=cause,
                chunks_left=len(pending),
                workers=pool_workers,
            )
            if attempt > retry.max_retries:
                telemetry.counter_inc("campaign.degraded")
                observe_events.emit(
                    "degrade", to_workers=1, serial_fallback=True, attempt=attempt
                )
                if annotate is not None:
                    annotate(
                        f"{cause}; retry budget exhausted after {attempt - 1} "
                        f"retries — degrading to in-process serial execution"
                    )
                break
            if attempt >= retry.degrade_after and pool_workers > 1:
                pool_workers = max(1, pool_workers // 2)
                telemetry.counter_inc("campaign.degraded")
                observe_events.emit(
                    "degrade",
                    to_workers=pool_workers,
                    serial_fallback=False,
                    attempt=attempt,
                )
            if annotate is not None:
                annotate(
                    f"{cause}; retry {attempt}/{retry.max_retries} "
                    f"({len(pending)} chunks left, {pool_workers} workers)"
                )
            sleep(retry.delay_s(attempt, jitter_rng))
        except BaseException:
            # Workload bugs, CampaignInterrupted, KeyboardInterrupt:
            # release the pool without waiting on stragglers.
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    if pending:
        # In-process execution (one worker, no spec, or the retry
        # budget's fallback): same chunk runner, same RNG derivation,
        # same results.
        if local_state is not None:
            workload, golden_output, golden_cycles = local_state
        elif spec is not None:
            workload, golden_output, golden_cycles = _workload_state(spec)
        else:
            raise ValueError(
                "execute_plans_parallel needs a spec or local_state to run chunks"
            )
        monitor = monitor_for(
            workload,
            golden_output,
            golden_cycles,
            config,
            fast_forward=fast_forward_for(spec, config),
        )
        for index in list(pending):
            if tracer is not None:
                fresh, previous = telemetry.swap_in_fresh_tracer()
                try:
                    results = run_chunk_on_monitor(monitor, config, chunks[index])
                finally:
                    telemetry.restore_tracer(previous)
                collector.secure(index, (results, fresh.registry.snapshot()))
            else:
                collector.secure(index, run_chunk_on_monitor(monitor, config, chunks[index]))
            pending.remove(index)

    flat = collector.finish(len(chunks))
    # Boundary groups are ordered by first member, not contiguous by
    # plan index — put the flattened results back into injection order,
    # so downstream statistics see the plans' own sequence.
    reordered: list[InjectionResult | None] = [None] * len(flat)
    for position, plan_index in enumerate(index for group in groups for index in group):
        reordered[plan_index] = flat[position]
    return reordered
