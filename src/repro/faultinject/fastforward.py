"""Golden-prefix fast-forward: skip the uninjected prefix of injected runs.

A single-bit fault planned at cycle ``c`` cannot affect anything the run
computes before ``c`` — up to the first checkpoint at or after ``c``,
an injected run is a byte-for-byte replay of the golden run.  On a
uniform cycle draw that replay is half of every campaign's work.  This
module amortizes it: one instrumented golden run records a snapshot at
every frame boundary of the VS pipeline, and each injected run restores
the last snapshot strictly before its target cycle and executes only
the live suffix.

The hard requirement is the repo's standing invariant: a fast-forwarded
campaign must be **bit-identical** to a full one — outcomes, counts,
histograms, SDC payloads, cycle counts and divergence records — at any
worker count and across journal interrupt/resume.  That forces the
snapshot to cover far more than the pipeline's visible state, because
the injector's *fire-time behaviour* depends on machine state mutated
at every prefix checkpoint:

* **Register file** — ``FaultInjector.visit`` writes every binding of
  every checkpoint into the modelled register file.  What the planned
  flip hits (binding name, role, staleness) is decided by the slot
  contents at fire time, and suffix slot allocation depends on the
  prefix's round-robin assignment order.  Snapshots therefore capture
  the full :class:`~repro.faultinject.registers.RegisterFileState` as
  value descriptors and restore it into the injected run's register
  file.
* **Address space** — the injector maps every array it sees, and the
  simulated heap layout is a pure function of the *ordered sequence of
  first-use allocations* plus the per-plan seed.  Snapshots log that
  sequence; restore replays it into the injected run's fresh
  ``AddressSpace`` so corrupted pointers resolve to exactly the
  addresses a full run would produce.
* **Aliased memory content** — a corrupted read pointer copies bytes
  *from* whatever allocation it lands in, so the byte content of every
  prefix allocation matters at fire time.  Arrays that are dead at a
  boundary (kernel-local temporaries, frame copies) are frozen by
  content and rebuilt as fresh stand-ins per restore; arrays that are
  still live program state (mini-panorama canvases, the previous
  frame's feature arrays) are restored as the *same objects* the
  resumed pipeline mutates, so corruption flows downstream exactly as
  in a full run.  Views that share memory with a live base (descriptor
  batch slices) are rebuilt as views of the restored base, preserving
  real memory sharing while the simulated heap keeps treating them as
  distinct allocations — just like a full run does.

Restores are destructive (the flip may corrupt any restored object), so
every restore rebuilds its mutable state from the immutable tape.

Every restore runs through **boundary fan-out** (:class:`BoundaryFanOut`),
which amortizes it across a campaign: plans are grouped by the boundary
they resume from (see :func:`repro.faultinject.parallel.plan_groups`),
each boundary's restore source is materialized **once per worker** — the
frozen dead-allocation bytes are decoded into a shared read-only base —
and every member injection clones its mutable state copy-on-write from
that shared base instead of re-decoding the tape.  Fan-out members
additionally carry a convergence watch: once the flip has fired, every
frame boundary of the live suffix is compared against the golden tape,
and when the member's complete loop state (cycles, cells, RNG, chain,
features, canvases) is *exactly* the golden state again, the rest of
the run is by construction an exact golden replay — so the engine
synthesizes it (golden output, golden cycle count, golden probe tail)
instead of executing it.  Most masked runs re-converge at the first
boundary after the fire, which is where the fan-out speedup comes from.

What is *not* bit-identical under fast-forward: telemetry traces (the
skipped prefix emits no spans) and wall-clock-based soft deadlines
(fast-forward strictly reduces wall time).  Campaign results never
depend on either.
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.faultinject.registers import (
    AddressBinding,
    ArrayBinding,
    FloatValueBinding,
    IntCellBinding,
    IntValueBinding,
    RegisterFileState,
)
from repro.forensics import probes
from repro.observe import events as observe_events
from repro.runtime.context import Cell, CostProfile, ExecutionContext
from repro.summarize.pipeline import (
    PipelineState,
    _ransac_seed,
    materialize_frames,
    run_vs,
    run_vs_resumed,
)
from repro.summarize.stitcher import MiniPanorama
from repro.vision.orb import FeatureSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultinject.injector import FaultInjector
    from repro.summarize.config import VSConfig
    from repro.video.frames import FrameStream


class SnapshotUnsupported(Exception):
    """The workload uses a construct snapshots cannot represent.

    Raised during capture (e.g. an ``AddressBinding`` with a custom
    ``on_alias`` callback, whose behaviour cannot be rebuilt from a
    value descriptor).  Campaigns degrade gracefully: the workload
    simply runs full executions.
    """


# ---------------------------------------------------------------------------
# Tape data model
# ---------------------------------------------------------------------------

#: Names of the pipeline cells that are live across frame boundaries.
#: Their slot descriptors must rebind the *restored* cells, not frozen
#: stand-ins, so a fire that corrupts e.g. the frame index corrupts the
#: loop the resumed pipeline is actually running.
_LIVE_CELLS = ("index", "total", "failures")


@dataclass
class AllocRecord:
    """One array the injector would have mapped during the prefix.

    ``array`` pins the capture-run object so its ``id`` stays unique for
    the recorder's lifetime.  ``frozen`` holds the byte content at the
    first boundary where the array was no longer live program state;
    live arrays are never frozen (they are rebuilt from the pipeline
    snapshot instead).
    """

    aid: int
    array: np.ndarray
    dtype: np.dtype
    shape: tuple
    nbytes: int
    frozen: bytes | None = None


@dataclass
class MiniSnapshot:
    """Copy-on-restore state of one mini-panorama at a boundary."""

    canvas: np.ndarray
    coverage: np.ndarray
    frames_composited: int


@dataclass
class FrameSnapshot:
    """Everything needed to re-enter the run at one frame boundary."""

    cycles: int
    frame_index: int
    total: int
    failures: int
    rng_state: dict
    prev_chain: np.ndarray | None
    #: ``(coords, descriptors, angles)`` copies, or None before frame 0.
    features: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    minis: list[MiniSnapshot]
    outcomes: list
    #: How many allocations existed at this boundary (prefix of the
    #: tape's alloc list, in first-use order).
    n_allocs: int
    #: aid -> (base_key, byte_offset, is_identity) for allocations that
    #: are live program state at this boundary.
    live_map: dict[int, tuple[tuple, int, bool]]
    #: Register file as value descriptors: (assigned, next_slot, slots).
    regfile: tuple
    profile_by_scope: dict[str, int]
    #: Number of probe events the golden run had emitted by here.
    probe_count: int


@dataclass
class SnapshotTape:
    """The immutable per-workload record all restores are built from."""

    boundaries: list[FrameSnapshot]
    allocs: list[AllocRecord]
    probe_events: list[tuple[str, int]]
    golden_cycles: int
    frame_shape: tuple[int, int]
    #: The golden output panorama, kept so a fan-out member whose state
    #: re-converges to the tape can synthesize its golden tail without
    #: executing it.
    golden_output: np.ndarray
    boundary_cycles: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.boundary_cycles:
            self.boundary_cycles = [b.cycles for b in self.boundaries]


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


class SnapshotRecorder:
    """Pseudo-injector that snapshots machine state at frame boundaries.

    Mirrors what a real :class:`FaultInjector` does at every checkpoint
    — map each binding's backing array, write the binding into the
    register file — and additionally implements the pipeline's
    ``frame_boundary`` hook to capture a :class:`FrameSnapshot` at the
    top of every loop iteration.  Like the census probe it observes
    every checkpoint of the run (``observing`` is always True), so the
    capture run is *armed*: kernels build the same windows, take the
    same armed-only code paths, and produce the same prefix byte
    content an injected run's prefix would.
    """

    observing = True

    def __init__(self) -> None:
        self.regfile = RegisterFileState()
        self.boundaries: list[FrameSnapshot] = []
        self.allocs: list[AllocRecord] = []
        self._alloc_by_id: dict[int, AllocRecord] = {}
        self.probe: probes.StageProbe | None = None
        self.profile: CostProfile | None = None

    # -- checkpoint callback (FaultInjector.visit contract) -------------
    def visit(self, ctx: ExecutionContext, window) -> None:
        """Track register-file writes and first-use allocations."""
        cycle = ctx.cycles
        for binding in window.bindings:
            backing = getattr(binding, "array", None)
            if backing is not None:
                self._ensure(backing)
            if isinstance(binding, AddressBinding) and binding.on_alias is not None:
                raise SnapshotUnsupported(
                    f"binding {binding.name!r} at {window.site!r} uses on_alias"
                )
            self.regfile.write(binding, window.site, cycle)

    def _ensure(self, array: np.ndarray) -> None:
        if id(array) in self._alloc_by_id:
            return
        record = AllocRecord(
            aid=len(self.allocs),
            array=array,
            dtype=array.dtype,
            shape=tuple(array.shape),
            nbytes=max(int(array.nbytes), 1),
        )
        self.allocs.append(record)
        self._alloc_by_id[id(array)] = record

    # -- pipeline hook ---------------------------------------------------
    def frame_boundary(
        self, ctx: ExecutionContext, rng: np.random.Generator, state: PipelineState
    ) -> None:
        """Capture one frame-boundary snapshot."""
        live_bases = _live_bases(state)
        live_map: dict[int, tuple[tuple, int, bool]] = {}
        for record in self.allocs:
            placement = _resolve_live(record, live_bases)
            if placement is not None:
                live_map[record.aid] = placement
            elif record.frozen is None:
                # First boundary where this allocation is dead: its byte
                # content is final from the program's point of view, so
                # freeze it once for all later restores.
                record.frozen = record.array.tobytes()

        self.boundaries.append(
            FrameSnapshot(
                cycles=ctx.cycles,
                frame_index=int(state.index.value),
                total=int(state.total.value),
                failures=int(state.failures.value),
                rng_state=copy.deepcopy(rng.bit_generator.state),
                prev_chain=None if state.prev_chain is None else state.prev_chain.copy(),
                features=(
                    None
                    if state.prev_features is None
                    else (
                        state.prev_features.coords.copy(),
                        state.prev_features.descriptors.copy(),
                        state.prev_features.angles.copy(),
                    )
                ),
                minis=[
                    MiniSnapshot(
                        canvas=mini.canvas.copy(),
                        coverage=mini.coverage.copy(),
                        frames_composited=mini.frames_composited,
                    )
                    for mini in state.minis
                ],
                outcomes=list(state.outcomes),
                n_allocs=len(self.allocs),
                live_map=live_map,
                regfile=self._describe_regfile(state),
                profile_by_scope=(
                    {} if self.profile is None else self.profile.by_scope()
                ),
                probe_count=0 if self.probe is None else len(self.probe.events),
            )
        )

    # -- register-file descriptors ---------------------------------------
    def _describe_regfile(self, state: PipelineState) -> tuple:
        assigned, next_slot, slots = self.regfile.export_state()
        described = {
            kind: [
                None
                if entry is None
                else (
                    self._describe_binding(entry.binding, state),
                    entry.site,
                    entry.written_cycle,
                )
                for entry in entries
            ]
            for kind, entries in slots.items()
        }
        return (assigned, next_slot, described)

    def _describe_binding(self, binding, state: PipelineState) -> tuple:
        if isinstance(binding, IntCellBinding):
            for cell_name in _LIVE_CELLS:
                if binding.cell is getattr(state, cell_name):
                    return (
                        "cell-live",
                        binding.name,
                        binding.role,
                        binding.ttl,
                        cell_name,
                    )
            # Kernel-local cell: dead at the boundary, value final.
            return ("cell", binding.name, binding.role, binding.ttl, int(binding.cell.value))
        if isinstance(binding, AddressBinding):
            return (
                "address",
                binding.name,
                binding.ttl,
                binding.byte_offset,
                binding.writes,
                binding.window,
                self._alloc_by_id[id(binding.array)].aid,
            )
        if isinstance(binding, ArrayBinding):
            return (
                "array",
                binding.name,
                binding.kind,
                binding.role,
                binding.ttl,
                self._alloc_by_id[id(binding.array)].aid,
            )
        if isinstance(binding, IntValueBinding):
            # The apply callback targets kernel-local state that is dead
            # at a frame boundary, so a no-op stand-in is exact.
            return ("ivalue", binding.name, binding.role, binding.ttl, binding.value)
        if isinstance(binding, FloatValueBinding):
            return ("fvalue", binding.name, binding.ttl, binding.value)
        raise SnapshotUnsupported(f"unknown binding type {type(binding)!r}")


def _live_bases(state: PipelineState) -> list[tuple[tuple, np.ndarray]]:
    """The arrays that are live program state at a frame boundary.

    Everything the resumed pipeline will read *and mutate*: the mini
    panoramas' canvas/coverage buffers and the previous frame's feature
    arrays.  All other arrays the injector saw are dead temporaries.
    """
    bases: list[tuple[tuple, np.ndarray]] = []
    for k, mini in enumerate(state.minis):
        bases.append((("mini", k, "canvas"), mini.canvas))
        bases.append((("mini", k, "coverage"), mini.coverage))
    if state.prev_features is not None:
        bases.append((("prev", "coords"), state.prev_features.coords))
        bases.append((("prev", "descriptors"), state.prev_features.descriptors))
        bases.append((("prev", "angles"), state.prev_features.angles))
    return bases


def _resolve_live(
    record: AllocRecord, bases: list[tuple[tuple, np.ndarray]]
) -> tuple[tuple, int, bool] | None:
    """Place ``record`` relative to a live base array, if it is live.

    Returns ``(base_key, byte_offset, is_identity)``.  Identity matters:
    the restored pipeline re-binds its own live arrays, and those binds
    must id-hit the same address-space allocation the replay created —
    while a *view* sharing the base's memory (a descriptor batch slice)
    must restore as a distinct object, because the full run maps it as
    a separate simulated allocation.
    """
    for key, base in bases:
        if record.array is base:
            return (key, 0, True)
        if base.nbytes and np.may_share_memory(record.array, base):
            offset = record.array.ctypes.data - base.ctypes.data
            if 0 <= offset and offset + record.nbytes <= base.nbytes:
                return (key, offset, False)
    return None


def capture_tape(
    stream: "FrameStream", config: "VSConfig", golden_output: np.ndarray, golden_cycles: int
) -> SnapshotTape:
    """One instrumented golden run -> the workload's snapshot tape.

    Runs the pipeline once with a :class:`SnapshotRecorder` armed and a
    stage probe capturing, then cross-checks the run against the cached
    golden output and cycle count — a capture that does not reproduce
    the golden run exactly would silently poison every restore.
    """
    frames, frame_shape = materialize_frames(stream, config)
    recorder = SnapshotRecorder()
    probe = probes.StageProbe()
    recorder.probe = probe
    profile = CostProfile()
    recorder.profile = profile
    ctx = ExecutionContext(injector=recorder, profile=profile)
    with probes.capturing(probe):
        result = run_vs(stream, config, ctx)
    if ctx.cycles != golden_cycles or not np.array_equal(result.panorama, golden_output):
        raise RuntimeError(
            "fast-forward capture diverged from the golden run "
            f"(cycles {ctx.cycles} vs {golden_cycles})"
        )
    return SnapshotTape(
        boundaries=recorder.boundaries,
        allocs=recorder.allocs,
        probe_events=list(probe.events),
        golden_cycles=golden_cycles,
        frame_shape=frame_shape if frame_shape is not None else (0, 0),
        golden_output=golden_output.copy(),
    )


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------


class FastForward:
    """Per-workload fast-forward handle: boundary lookup + restore.

    Built once per ``(config, stream)`` per process (see
    :func:`repro.summarize.golden.golden_fast_forward`) and shared by
    every injected run of a campaign.  The tape and the materialized
    frame table are immutable; every fan-out member rebuilds fresh
    mutable state from them.
    """

    def __init__(self, tape: SnapshotTape, stream: "FrameStream", config: "VSConfig") -> None:
        self.tape = tape
        self.config = config
        self.stream_name = stream.name
        self._frames, self._frame_shape = materialize_frames(stream, config)
        #: boundary index -> shared fan-out state, lazily built.  Hangs
        #: off the handle so "materialize once per worker" falls out of
        #: the per-process handle cache in ``summarize.golden``.
        self._fanouts: dict[int, BoundaryFanOut] = {}
        self._snapshot_by_frame: dict[int, FrameSnapshot] | None = None

    def boundary_index_for(self, target_cycle: int) -> int | None:
        """Index of the last frame boundary strictly before the cycle.

        Strictly: no checkpoint of the restored suffix may precede the
        boundary, so no prefix checkpoint the injector never saw could
        have fired.  Boundary 0 (cycle 0, nothing skipped) is treated as
        "run in full" — restoring it would only add overhead.
        """
        index = bisect.bisect_left(self.tape.boundary_cycles, target_cycle) - 1
        if index <= 0:
            return None
        return index

    def boundary_for(self, target_cycle: int) -> FrameSnapshot | None:
        """The last frame boundary strictly before ``target_cycle``."""
        index = self.boundary_index_for(target_cycle)
        if index is None:
            return None
        return self.tape.boundaries[index]

    def fanout(self, index: int) -> "BoundaryFanOut":
        """The shared fan-out state for boundary ``index`` (lazy)."""
        fan = self._fanouts.get(index)
        if fan is None:
            fan = BoundaryFanOut(self, index)
            self._fanouts[index] = fan
            telemetry.counter_inc("campaign.fanout.groups")
        return fan

    def _by_frame(self) -> dict[int, FrameSnapshot]:
        if self._snapshot_by_frame is None:
            self._snapshot_by_frame = {
                b.frame_index: b for b in self.tape.boundaries
            }
        return self._snapshot_by_frame

    def _synthesize_tail(self, ctx: ExecutionContext, snapshot: FrameSnapshot) -> np.ndarray:
        """Complete a re-converged run from the tape, without executing.

        At ``snapshot``'s boundary the member's loop state equals the
        golden run's exactly, and the loop forward of a boundary is a
        pure function of that state — so the remaining frames would
        reproduce the golden run byte-for-byte.  Emit what they would
        have emitted: the golden probe tail from this boundary on, the
        golden final cycle count, and a fresh copy of the golden output.
        """
        probes.replay_prefix(self.tape.probe_events[snapshot.probe_count :])
        ctx.preload(self.tape.golden_cycles)
        telemetry.counter_inc("campaign.fanout.golden_tail")
        # Parent-side only by construction: workers never carry a bus,
        # so fan-out never duplicates golden-tail events.
        observe_events.emit(
            "golden_tail",
            frame=snapshot.frame_index,
            skipped_probe_events=len(self.tape.probe_events) - snapshot.probe_count,
        )
        return self.tape.golden_output.copy()

    # -- application state ------------------------------------------------
    def _restore_app(
        self, snapshot: FrameSnapshot
    ) -> tuple[PipelineState, dict[tuple, np.ndarray]]:
        live_bases: dict[tuple, np.ndarray] = {}
        minis: list[MiniPanorama] = []
        for k, mini_snap in enumerate(snapshot.minis):
            mini = MiniPanorama(self._frame_shape, self.config)
            mini.canvas = mini_snap.canvas.copy()
            mini.coverage = mini_snap.coverage.copy()
            mini.frames_composited = mini_snap.frames_composited
            minis.append(mini)
            live_bases[("mini", k, "canvas")] = mini.canvas
            live_bases[("mini", k, "coverage")] = mini.coverage

        prev_features: FeatureSet | None = None
        if snapshot.features is not None:
            coords, descriptors, angles = snapshot.features
            prev_features = FeatureSet(coords.copy(), descriptors.copy(), angles.copy())
            live_bases[("prev", "coords")] = prev_features.coords
            live_bases[("prev", "descriptors")] = prev_features.descriptors
            live_bases[("prev", "angles")] = prev_features.angles

        state = PipelineState(
            minis=minis,
            outcomes=list(snapshot.outcomes),
            current=minis[-1] if minis else None,
            prev_features=prev_features,
            prev_chain=None if snapshot.prev_chain is None else snapshot.prev_chain.copy(),
            failures=Cell(snapshot.failures),
            index=Cell(snapshot.frame_index),
            total=Cell(snapshot.total),
        )
        return state, live_bases

    # -- machine state ----------------------------------------------------
    def _restore_machine(
        self,
        snapshot: FrameSnapshot,
        injector: "FaultInjector",
        live_bases: dict[tuple, np.ndarray],
        state: PipelineState,
        dead_base: dict[int, np.ndarray],
    ) -> None:
        # Replay the prefix's first-use allocation sequence, in order,
        # into the injected run's fresh address space: the heap layout
        # (and the RNG draws behind it) become bit-identical to a full
        # run's at the point the suffix takes over.
        objects: dict[int, np.ndarray] = {}
        for record in self.tape.allocs[: snapshot.n_allocs]:
            placement = snapshot.live_map.get(record.aid)
            if placement is not None:
                key, offset, identity = placement
                base = live_bases[key]
                if identity:
                    array = base
                else:
                    flat = base.reshape(-1).view(np.uint8)
                    array = (
                        flat[offset : offset + record.nbytes]
                        .view(record.dtype)
                        .reshape(record.shape)
                    )
            else:
                # Dead allocation: a writable copy-on-write clone of the
                # group's shared read-only base (the flip may corrupt
                # it; the base and the tape stay pristine).
                array = dead_base[record.aid].copy()
            injector.space.ensure(array)
            objects[record.aid] = array

        assigned, next_slot, described = snapshot.regfile
        from repro.faultinject.registers import SlotEntry

        slots = {
            kind: [
                None
                if item is None
                else SlotEntry(
                    binding=self._build_binding(item[0], objects, state),
                    site=item[1],
                    written_cycle=item[2],
                )
                for item in entries
            ]
            for kind, entries in described.items()
        }
        injector.regfile.import_state(assigned, next_slot, slots)

    def _build_binding(self, desc: tuple, objects: dict[int, np.ndarray], state: PipelineState):
        tag = desc[0]
        if tag == "cell-live":
            _, name, role, ttl, cell_name = desc
            return IntCellBinding(name, getattr(state, cell_name), role=role, ttl=ttl)
        if tag == "cell":
            _, name, role, ttl, value = desc
            return IntCellBinding(name, Cell(value), role=role, ttl=ttl)
        if tag == "address":
            _, name, ttl, byte_offset, writes, window, aid = desc
            return AddressBinding(
                name,
                objects[aid],
                byte_offset=byte_offset,
                writes=writes,
                window=window,
                ttl=ttl,
            )
        if tag == "array":
            _, name, kind, role, ttl, aid = desc
            return ArrayBinding(name, objects[aid], kind, role=role, ttl=ttl)
        if tag == "ivalue":
            _, name, role, ttl, value = desc
            return IntValueBinding(name, value, _discard_int, role=role, ttl=ttl)
        if tag == "fvalue":
            _, name, ttl, value = desc
            return FloatValueBinding(name, value, _discard_float, ttl=ttl)
        raise SnapshotUnsupported(f"unknown binding descriptor {tag!r}")


def _discard_int(value: int) -> None:
    """Stand-in apply for a dead kernel-local integer value binding."""


def _discard_float(value: float) -> None:
    """Stand-in apply for a dead kernel-local float value binding."""


# ---------------------------------------------------------------------------
# Boundary fan-out
# ---------------------------------------------------------------------------


class BoundaryFanOut:
    """Shared restore source for all injections resuming at one boundary.

    Materialized lazily on the first member: the boundary's frozen
    dead-allocation bytes are decoded **once** into read-only arrays —
    zero-copy views of the tape's immutable ``frozen`` buffers — and
    every member clones its writable stand-ins copy-on-write from that
    shared base instead of re-decoding the tape per restore.  The clones
    are mandatory, not an optimization to skip: restores are destructive
    (a fired flip may corrupt any restored object), so nothing mutable
    is ever shared between members.  The differential suite checks
    campaigns byte-for-byte against unrestored full runs.
    """

    def __init__(self, fast_forward: FastForward, index: int) -> None:
        self.fast_forward = fast_forward
        self.index = index
        self.snapshot = fast_forward.tape.boundaries[index]
        self.members_run = 0
        self._dead_base: dict[int, np.ndarray] | None = None
        self._clones_per_member = 0

    def _materialize(self) -> dict[int, np.ndarray]:
        """Decode this boundary's dead allocations once, read-only."""
        snapshot = self.snapshot
        base: dict[int, np.ndarray] = {}
        for record in self.fast_forward.tape.allocs[: snapshot.n_allocs]:
            if record.aid in snapshot.live_map:
                continue
            # np.frombuffer over the frozen bytes is read-only, so the
            # shared base is immune to member corruption by construction.
            base[record.aid] = np.frombuffer(record.frozen, dtype=record.dtype).reshape(
                record.shape
            )
        self._clones_per_member = (
            len(base)
            + 2 * len(snapshot.minis)
            + (0 if snapshot.features is None else 3)
            + (0 if snapshot.prev_chain is None else 1)
        )
        return base

    def resume_member(self, ctx: ExecutionContext) -> np.ndarray:
        """Restore this boundary into ``ctx`` and run the live suffix.

        ``ctx`` must be a fresh context carrying a real
        :class:`FaultInjector` whose plan targets a cycle after the
        boundary.  Returns the run's output panorama, exactly as the
        full workload closure would.
        """
        if self._dead_base is None:
            self._dead_base = self._materialize()
            telemetry.counter_inc("campaign.fanout.shared_restores")
        elif telemetry.enabled():
            telemetry.counter_inc(
                f"campaign.fanout.b{self.snapshot.frame_index}.restores_saved"
            )
        self.members_run += 1
        if telemetry.enabled():
            telemetry.counter_inc("campaign.fanout.cow_clones", self._clones_per_member)
            telemetry.counter_inc(
                f"campaign.fanout.b{self.snapshot.frame_index}.members"
            )
        ff = self.fast_forward
        snapshot = self.snapshot
        injector = ctx.injector
        with telemetry.span(f"fanout.suffix.b{snapshot.frame_index}", ctx=ctx):
            state, live_bases = ff._restore_app(snapshot)
            ff._restore_machine(snapshot, injector, live_bases, state, self._dead_base)
            ctx.preload(snapshot.cycles, snapshot.profile_by_scope)
            probes.replay_prefix(ff.tape.probe_events[: snapshot.probe_count])
            rng = np.random.default_rng(_ransac_seed(ff.config, ff.stream_name))
            rng.bit_generator.state = copy.deepcopy(snapshot.rng_state)
            # The watch only observes until it proves the rest of the run
            # is a golden replay.
            injector.frame_boundary = _ConvergenceWatch(injector, ff._by_frame())
            try:
                result = run_vs_resumed(
                    ff.config, ctx, state, rng, ff._frames, ff._frame_shape
                )
            except _GoldenTailReached as reached:
                return ff._synthesize_tail(ctx, reached.snapshot)
            return result.panorama


class _GoldenTailReached(Exception):
    """Control-flow signal: a fired member re-converged to the tape.

    Raised by :class:`_ConvergenceWatch` from the pipeline's
    ``frame_boundary`` hook and caught inside
    ``BoundaryFanOut.resume_member`` —
    it never escapes to outcome classification.
    """

    def __init__(self, snapshot: FrameSnapshot) -> None:
        super().__init__(f"golden tail at frame {snapshot.frame_index}")
        self.snapshot = snapshot


class _ConvergenceWatch:
    """``frame_boundary`` hook armed on fan-out members.

    Until the injector fires it is a single attribute check per frame.
    After the fire, each boundary compares the member's complete loop
    state against the tape's snapshot for that frame index — cheapest
    fields first, so runs that stay divergent pay almost nothing — and
    raises :class:`_GoldenTailReached` on exact equality.  Equality is
    a *proof*: ``PipelineState`` plus the RANSAC RNG and the cycle
    counter is everything the loop reads forward of a boundary (the
    fired injector is spent and never consults machine state again),
    so an equal state replays the golden tail verbatim.
    """

    __slots__ = ("injector", "by_frame")

    def __init__(self, injector: "FaultInjector", by_frame: dict[int, FrameSnapshot]) -> None:
        self.injector = injector
        self.by_frame = by_frame

    def __call__(
        self, ctx: ExecutionContext, rng: np.random.Generator, state: PipelineState
    ) -> None:
        if not self.injector.record.fired:
            return
        snapshot = self.by_frame.get(int(state.index.value))
        if snapshot is None or ctx.cycles != snapshot.cycles:
            return
        if _matches_snapshot(snapshot, rng, state):
            raise _GoldenTailReached(snapshot)


def _matches_snapshot(
    snapshot: FrameSnapshot, rng: np.random.Generator, state: PipelineState
) -> bool:
    """Exact loop-state equality against a tape snapshot (cheap first)."""
    # ``state.outcomes`` is deliberately not compared: the loop only
    # appends to it forward of a boundary (never reads it), and the
    # member's own per-frame outcomes are not part of its result — so
    # it cannot influence the tail.  Everything else is load-bearing.
    if (
        int(state.total.value) != snapshot.total
        or int(state.failures.value) != snapshot.failures
        or len(state.minis) != len(snapshot.minis)
        or (state.prev_chain is None) != (snapshot.prev_chain is None)
        or (state.prev_features is None) != (snapshot.features is None)
    ):
        return False
    if rng.bit_generator.state != snapshot.rng_state:
        return False
    if state.prev_chain is not None and not np.array_equal(
        state.prev_chain, snapshot.prev_chain
    ):
        return False
    if snapshot.features is not None:
        coords, descriptors, angles = snapshot.features
        prev = state.prev_features
        if not (
            np.array_equal(prev.coords, coords)
            and np.array_equal(prev.descriptors, descriptors)
            and np.array_equal(prev.angles, angles)
        ):
            return False
    for mini, mini_snap in zip(state.minis, snapshot.minis):
        if (
            mini.frames_composited != mini_snap.frames_composited
            or not np.array_equal(mini.coverage, mini_snap.coverage)
            or not np.array_equal(mini.canvas, mini_snap.canvas)
        ):
            return False
    return True
