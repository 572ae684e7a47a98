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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro.faultinject.injector import InjectionPlan
from repro.faultinject.monitor import FaultMonitor, InjectionResult, Workload, golden_signature
from repro.faultinject.outcomes import HangKind
from repro.observe import events as observe_events
from repro.telemetry.metrics import run_buffered

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


@dataclass
class WorkerState:
    """One workload as a process executes it: everything a monitor needs.

    Built once per process per spec (:func:`_workload_state`) and shared
    by every chunk the process runs.
    """

    workload: Workload
    golden_output: np.ndarray
    golden_cycles: int
    #: The fast-forward handle; ``None`` for tapeless workloads (the WP
    #: spec, toy specs), which run every injection in full.
    fast_forward: object | None = None
    _signature: dict[str, tuple[int, ...]] | None = field(default=None, repr=False)

    def golden_signature(self) -> dict[str, tuple[int, ...]]:
        """The per-stage golden checksum sequences, computed on first use."""
        if self._signature is None:
            self._signature = golden_signature(
                self.workload, self.golden_output, self.fast_forward
            )
        return self._signature


@runtime_checkable
class WorkloadSpec(Protocol):
    """A picklable recipe for rebuilding a workload in a worker process.

    Implementations must be hashable (they key the per-process cache)
    and cheap to pickle; ``build`` may be expensive — it runs once per
    worker process and its result is cached.
    """

    def build(self) -> WorkerState:
        """Rebuild the workload and its golden reference."""
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

    def build(self) -> WorkerState:
        """Rebuild the stream and workload closure; take the golden run
        and its tape from the process's golden cache (one capture)."""
        from repro.summarize.golden import golden_with_tape
        from repro.summarize.pipeline import run_vs
        from repro.video.synthetic import cached_input

        stream = cached_input(self.input_name, n_frames=self.n_frames, frame_size=self.frame_size)
        golden = golden_with_tape(stream, self.config)
        config = self.config

        def workload(ctx) -> np.ndarray:
            return run_vs(stream, config, ctx).panorama

        return WorkerState(workload, golden.output, golden.total_cycles, golden.fast_forward)


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

#: Per-process cache: spec -> its worker state.  Shared by all chunks a
#: process executes, so the golden reference is materialized once per
#: process, not once per task.  Cleared by
#: :func:`repro.summarize.golden.clear_golden_cache`.
_WORKER_STATE: dict[WorkloadSpec, WorkerState] = {}


def _workload_state(spec: WorkloadSpec) -> WorkerState:
    state = _WORKER_STATE.get(spec)
    if state is None:
        state = _WORKER_STATE[spec] = spec.build()
    return state


def fast_forward_for(spec: WorkloadSpec | None, config: "CampaignConfig | None" = None):
    """``spec``'s fast-forward handle (``None`` without a spec or tape).

    It keys planning only: the frame groups of :func:`plan_groups` and
    the stratified sampler's fire-log strata.  Deciding and executing
    plans read ``WorkerState.fast_forward`` through :func:`monitor_for`
    (see :func:`execute_plans_parallel`).  ``config`` is unused; the
    parameter is accepted for existing callers.
    """
    return _workload_state(spec).fast_forward if spec is not None else None


def monitor_for(
    workload: Workload,
    golden_output: np.ndarray,
    golden_cycles: int,
    config: "CampaignConfig",
    state: WorkerState | None = None,
) -> FaultMonitor:
    """A fault monitor configured exactly as the campaign prescribes.

    ``state`` (the spec's worker state) supplies the fast-forward handle
    and the process-shared golden signature.
    """
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
        fast_forward=state.fast_forward if state is not None else None,
        golden_signature=state.golden_signature if state is not None else None,
    )


def run_chunk_on_monitor(
    monitor: FaultMonitor,
    config: "CampaignConfig",
    chunk: list[tuple[int, InjectionPlan]],
) -> list[InjectionResult]:
    """Execute one chunk of ``(index, plan)`` pairs on ``monitor``.

    The single source of the per-run RNG derivation — worker and
    in-process execution both run chunks through here, which is what
    makes their results interchangeable bit for bit.  A campaign sends
    only plans the tape does not decide (see :func:`execute_plans_parallel`).
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
    state = _workload_state(spec)
    monitor = monitor_for(state.workload, state.golden_output, state.golden_cycles, config, state)
    return run_chunk_on_monitor(monitor, config, chunk)


def run_observed(observed: bool, runner: Callable, *args) -> tuple[list[InjectionResult], list]:
    """Run one chunk, in a worker or in-process: ``(results, events)``.

    ``observed`` (the dispatching process has a bus) buffers the chunk's
    events (:func:`~repro.telemetry.metrics.run_buffered`); otherwise no
    bus is installed and ``events`` is empty.
    """
    if observed:
        return run_buffered(runner, *args)
    return runner(*args), []


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
    group_for: Callable[[int], int],
    plans: list[InjectionPlan],
) -> list[list[int]]:
    """Partition plan indices by the frame they resume in.

    ``group_for`` maps a target cycle to its group key
    (:meth:`~repro.faultinject.fastforward.FastForward.group_for`).  All
    plans whose target cycle fast-forwards to a restore point of the
    same golden frame form one group.  Members share no restore: each
    rebuilds what its flip can reach from the immutable tape, so the
    grouping only sets the dispatch and checkpoint granularity — one
    chunk per frame, whatever the plan count.
    Targets that fire before restore point 1 resume point 0 (cycle 0)
    and join frame 0's group.

    Deterministic and order-preserving: groups are emitted in order of
    their first member's plan index, and members within a group keep
    ascending plan index.  The flattened groups are a permutation of
    ``range(len(plans))``.
    """
    members: dict[int, list[int]] = {}
    for index, plan in enumerate(plans):
        members.setdefault(group_for(plan.target_cycle), []).append(index)
    return sorted(members.values(), key=lambda group: group[0])


def plan_groups(
    spec: WorkloadSpec | None,
    config: "CampaignConfig",
    plans: list[InjectionPlan],
) -> tuple[list[list[int]], int]:
    """The campaign's dispatch groups and the worker count serving them.

    Groups are the scheduler's unit for executed plans: each is run
    whole by one worker and checkpointed as one journal chunk; the
    plans the tape decides leave their groups in
    :func:`execute_plans_parallel`.  With a snapshot tape groups are
    the frames the plans resume in (:func:`group_plan_indices`);
    tapeless workloads (the WP spec, spec-less closures) get contiguous
    index ranges (:func:`contiguous_groups`), so they keep their pool
    parallelism.  The worker count is clamped to the group count —
    more workers than groups only buys idle pool startup.  Results never
    depend on the grouping, so a resume may regroup (another worker
    count) freely.
    """
    ff = fast_forward_for(spec, config)
    if ff is not None:
        groups = group_plan_indices(
            lambda cycle: ff.group_for(cycle, config.site_filter), plans
        )
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
    """Secures completed chunks: results, journal, then their events.

    Results are keyed by plan index, so they come out in plan order
    whatever order chunks finish in.  A chunk's buffered events (see
    :func:`run_observed`) are re-published on the parent bus once the
    chunk is journaled, followed by its ``chunk_done``.  Chunks are
    secured in chunk order unless a worker failure forces retries; the
    registry fold only adds counters and timers, so it is the same for
    a fixed chunking either way.
    """

    def __init__(
        self,
        chunks: list[list[tuple[int, InjectionPlan]]],
        journal: "CampaignJournal | None",
        completed: dict[int, InjectionResult],
        round_index: int,
        index_base: int,
    ) -> None:
        self.chunks = chunks
        self.journal = journal
        self.round_index = round_index
        self.index_base = index_base
        self.results: dict[int, InjectionResult] = dict(completed)

    def secure(self, chunk_index: int, chunk_result: tuple[list[InjectionResult], list]) -> None:
        """Record one freshly executed chunk (journal before reporting)."""
        results, chunk_events = chunk_result
        indices = [index for index, _ in self.chunks[chunk_index]]
        self.results.update(zip(indices, results))
        if self.journal is not None:
            # Durability first: only a journaled chunk counts as done.
            # May raise CampaignInterrupted (the abort-after test hook).
            self.journal.append_chunk(self.round_index, indices, results)
        bus = observe_events.current()
        if bus is not None:
            # Tallies are computed only when someone is listening, so
            # the unobserved hot path stays one None check per chunk.
            for kind, payload in chunk_events:
                bus.publish(kind, payload)
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
                done=self.index_base + len(self.results),
                outcomes=outcomes,
            )
            if watchdog_hangs:
                observe_events.emit(
                    "watchdog_hang", index=chunk_index, count=watchdog_hangs
                )

    def finish(self, n_plans: int) -> list[InjectionResult]:
        """The round's results in plan order."""
        return [self.results[index] for index in range(self.index_base, self.index_base + n_plans)]


def execute_plans_parallel(
    spec: WorkloadSpec | None,
    config: "CampaignConfig",
    plans: list[InjectionPlan],
    workers: int,
    *,
    groups: list[list[int]],
    local_state: tuple[Workload, np.ndarray, int] | None = None,
    completed: dict[int, InjectionResult] | None = None,
    journal: "CampaignJournal | None" = None,
    sleep: Callable[[float], None] = time.sleep,
    index_base: int = 0,
    round_index: int = 0,
) -> list[InjectionResult]:
    """Run all plans, in injection order, surviving worker failures.

    With a snapshot tape, this process first decides every plan of the
    round the fire log can (:meth:`FaultMonitor.decide`: no RNG, nothing
    executes) and journals those results as one record, the round's
    first chunk.  Only the other plans are dispatched: each group of
    them (see :func:`plan_groups`; a group the tape decided whole is
    dropped) is one chunk, lands whole on one worker and is journaled as
    one record.  With a spec and more than one worker the chunks go to a
    process pool and are drained in chunk order; otherwise they run
    in-process through the same chunk runner.  Infrastructure failures — a worker killed by the OS
    (``BrokenProcessPool``) or a chunk exceeding its hard wall-clock
    deadline — never abort the campaign: already-finished chunks are
    swept from the broken pool, the remainder is retried under
    ``config.retry`` (exponential backoff + jitter, bounded attempts,
    worker-count degradation), and once the budget is exhausted the
    remaining chunks run in-process serially.  Workload exceptions that
    the monitor does not classify still propagate unchanged — those are
    library bugs, not infrastructure.

    ``index_base`` offsets the per-run RNG index without shifting group
    positions — a campaign's later sampling rounds use it to continue
    the campaign-global ``(seed, index)`` derivation.  ``completed``
    maps global plan indices to journaled results; only the indices not
    in it are decided or run, so a round whose indices are all journaled
    does nothing.  ``journal`` makes each newly finished chunk durable,
    as one record of round ``round_index``, before it is counted.  The
    output is the round's results in plan order.

    While a bus is installed, every chunk — in a worker or in-process —
    runs under a chunk-local buffering bus, and its events are
    re-published on the parent bus when the chunk is secured (see
    :class:`_ChunkCollector`).  Retries and degradation are reported as
    ``retry``/``degrade`` events plus a human-readable ``note``.
    """
    completed = completed or {}
    state = _workload_state(spec) if spec is not None else None
    if local_state is None and state is not None:
        local_state = (state.workload, state.golden_output, state.golden_cycles)
    monitor = monitor_for(*local_state, config, state) if local_state is not None else None
    observed = observe_events.enabled()
    decided: dict[int, InjectionResult] = {}
    decide_events: list = []
    if monitor is not None and monitor.fast_forward is not None:
        decided, decide_events = run_observed(
            observed,
            lambda: {
                index: result
                for index, plan in enumerate(plans, start=index_base)
                if index not in completed and (result := monitor.decide(plan)) is not None
            },
        )
    done = completed.keys() | decided.keys()
    executed = sorted(
        (
            kept
            for group in groups
            if (kept := [index for index in group if index_base + index not in done])
        ),
        key=lambda group: group[0],
    )
    chunks = chunks_from_groups(plans, executed, index_base)
    if decided:
        chunks.insert(0, [(index, plans[index - index_base]) for index in decided])
    retry = config.retry if config.retry is not None else RetryPolicy()
    watchdog = config.watchdog
    collector = _ChunkCollector(chunks, journal, completed, round_index, index_base)
    if decided:
        collector.secure(0, (list(decided.values()), decide_events))

    pending = list(range(1 if decided else 0, len(chunks)))
    # Jitter RNG: timing-only, never touches result determinism.
    jitter_rng = random.Random(config.seed ^ 0x5EED)
    pool_workers = min(workers, len(pending)) if pending else workers
    attempt = 0

    while pending and spec is not None and pool_workers > 1:
        # Forked workers must never publish to the parent's subscribers
        # (a status writer would rewrite the parent's file): they start
        # without a bus and buffer each chunk on their own.
        pool = ProcessPoolExecutor(
            max_workers=pool_workers, initializer=observe_events.uninstall
        )
        try:
            futures = {
                index: pool.submit(
                    run_observed, observed, run_injection_chunk, spec, config, chunks[index]
                )
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
                observe_events.emit(
                    "degrade", to_workers=1, serial_fallback=True, attempt=attempt
                )
                observe_events.emit(
                    "note",
                    note=f"{cause}; retry budget exhausted after {attempt - 1} "
                    f"retries — degrading to in-process serial execution",
                )
                break
            if attempt >= retry.degrade_after and pool_workers > 1:
                pool_workers = max(1, pool_workers // 2)
                observe_events.emit(
                    "degrade",
                    to_workers=pool_workers,
                    serial_fallback=False,
                    attempt=attempt,
                )
            observe_events.emit(
                "note",
                note=f"{cause}; retry {attempt}/{retry.max_retries} "
                f"({len(pending)} chunks left, {pool_workers} workers)",
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
        if monitor is None:
            raise ValueError("execute_plans_parallel needs a spec or local_state to run chunks")
        for index in list(pending):
            collector.secure(
                index, run_observed(observed, run_chunk_on_monitor, monitor, config, chunks[index])
            )
            pending.remove(index)

    return collector.finish(len(plans))
