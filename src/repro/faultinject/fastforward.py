"""Golden-prefix fast-forward: skip the uninjected prefix of injected runs.

A single-bit fault planned at cycle ``c`` cannot affect anything the run
computes before ``c`` — up to the first checkpoint at or after ``c``,
an injected run is a byte-for-byte replay of the golden run.  On a
uniform cycle draw that replay is half of every campaign's work.  This
module amortizes it: one instrumented golden run records a snapshot at
every restore point of the VS pipeline — the top of every frame, after
the frame's features are extracted, and, for a frame that stitches,
after its chain is validated — and each injected run restores the last
restore point before the checkpoint its flip fires at (point 0, at
cycle 0, for a fire before point 1) and executes only the live suffix.
No checkpoint before that one fires, so none the member skips could
have; a plan that never fires restores the last point strictly before
its target cycle.  Every
restore point lies between two top-level kernel calls of the frame
loop, so kernel-local state is dead at each of them and the loop's own
state (:class:`~repro.summarize.pipeline.PipelineState`) plus the RANSAC
RNG is all a run reads forward of one.

The same golden run also logs every checkpoint and register-file write
(:class:`FireLog`).  That decides, without executing anything (see
:meth:`FastForward.predict`):

* every run whose flip lands in an empty slot or an expired value, or
  that never fires: those paths never call ``flip``, so program state
  is untouched and the spent injector ignores every later checkpoint —
  the run *is* the golden run.  This is the paper's dead-register
  masking, and most FPR runs end here;
* every GPR flip of a live pointer that segfaults at the fire, the
  paper's dominant crash.  Up to its fire the run is the golden run,
  so the heap it fires in holds exactly the golden allocations noted
  by then, and their placement is a pure function of their sizes and
  the plan's seed.  The log keeps, per checkpoint, how many
  allocations are noted once its window is and how many probe events
  precede it, and, per pointer write, the allocation, offset and
  window it binds.  Placing those sizes
  (:meth:`~repro.faultinject.addrspace.AddressSpace.layout`, the lazy
  placement's own routine) and flipping the bit gives the corrupted
  address; ``flip`` segfaults exactly when that address is unmapped
  or its window crosses the end of its allocation
  (:meth:`~repro.faultinject.addrspace.AddressSpace.fault`), before it
  writes anything.  The run then ends at the fire checkpoint's cycle
  with the golden probe events before it.  A flip of a bit below the
  page size needs no placement: bases are page-aligned and page runs
  never overlap, so it lands in the pointer's own allocation or in the
  unmapped slack after it.  A placement that raises executes;
* every flip that writes only state already dead at the restore point
  its member resumes from.  When the fired slot was written before that
  point, the member restores that write from the log, and would flip a
  fresh kernel-local cell, a ``_discard_*`` value callback, a private
  clone of an array that is not live program state, a read pointer's
  own dead array (landing mapped), or the dead allocation a write
  pointer lands in.  Nothing the resumed pipeline
  reads changes, and the spent injector replays the golden run, so the
  run is MASKED with the flip's effect.  A value written after the
  point, a live array or landing execute: deciding bindings that a
  kernel wrote after the point but had returned from by the fire would
  need a kernel-exit record;
* every flip of the frame loop's own cells — its bound ``total``, its
  frame index, its failure counter — the paper's control-register
  crashes and truncations.  The fired slot names the cell, whenever
  it was written, and the loop reads these cells only in its test, its
  ``index += 1`` and its failure branch.  A bound raised past the
  frame count overruns the frame table where the golden loop exits; a
  lowered bound, or an index raised past it, ends the loop at a frame
  top, whose snapshot holds the minis the run stacks as its output; an
  index far below zero overruns at the next frame top; a failure
  counter is reset unread by a frame that stitches.  An index moved
  inside the frame table, and a counter the frame's failure branch
  reads, execute.

The hard requirement is the repo's standing invariant: a fast-forwarded
campaign must be **bit-identical** to a full one — outcomes, counts,
histograms, SDC payloads, cycle counts and divergence records — at any
worker count and across journal interrupt/resume.  That forces the
snapshot to cover far more than the pipeline's visible state, because
the injector's *fire-time behaviour* depends on machine state mutated
at every prefix checkpoint:

* **Register file** — ``FaultInjector.visit`` writes every binding of
  every checkpoint into the modelled register file, and suffix slot
  allocation depends on the prefix's round-robin assignment order, so
  snapshots capture that assignment.  The injector reads one slot, the
  planned one, and only when it fires: what the flip hits (binding
  name, role, staleness) is that slot's contents at fire time.  A
  member therefore restores the slot assignment plus the planned
  slot's last write before its restore point, rebuilt from the fire
  log's :class:`SlotWrite`; every other slot starts empty, since no
  read ever reaches it.
* **Address space** — the injector maps every array it sees, and the
  simulated heap layout is a pure function of the *ordered sequence of
  first-use allocations* plus the per-plan seed.  Snapshots log that
  sequence; restore replays it into the injected run's fresh
  ``AddressSpace`` so corrupted pointers resolve to exactly the
  addresses a full run would produce.  Replay only notes the arrays:
  placement is deferred until a pointer flip asks for an address.
* **Aliased memory content** — a corrupted read pointer copies bytes
  *from* whatever allocation it lands in, so the byte content of every
  prefix allocation matters at fire time.  Arrays that are dead at a
  restore point (kernel-local temporaries, earlier frame copies) are
  frozen by content and thawed from the tape when a pointer lands in one;
  arrays that are still live program state (mini-panorama canvases,
  the previous frame's feature arrays and, inside a frame, the working
  frame copy and its features) are restored as the *same objects* the
  resumed pipeline mutates, so corruption flows downstream exactly as
  in a full run.  Views that share memory with a live base (descriptor
  batch slices) are rebuilt as views of the restored base, preserving
  real memory sharing while the simulated heap keeps treating them as
  distinct allocations — just like a full run does.

Restores are destructive (the flip may corrupt any restored object it
can reach), so every restore rebuilds what a flip can reach from the
immutable tape.  The tape holds arrays and records only, and the
capture holds each dead byte once, in the narrowest dtype that gives
it back exactly.  A recorded array keeps its
allocation id while it lives: a weak reference drops its ``id`` key as
it dies, so an array that reuses the ``id`` is a new allocation and a
dead array's stale data pointer places nothing.  The capture pins an
array only until the first restore point it is dead at, where it
freezes its content and lets the array go; an allocation frozen dead is
never live again (the capture refuses one that would be).  A
mini-panorama the loop has closed is snapshotted once, when it closes,
and stays read-only until the capture ends, which checks it once more:
every later point shares that snapshot without comparing it.  The
open mini shares the previous point's snapshot when checked equal to
it, and so do feature arrays.
The working frame copy is not taped at all: at every in-frame point it
still equals its golden frame (checked at capture), so a restore
copies it from the frame table.

A campaign decides the plans the fire log decides where it dispatches
them, before any plan is shipped, and journals them as one record (see
:func:`repro.faultinject.parallel.execute_plans_parallel`); only the
rest are dispatched, in groups by the frame their restore point lies in
(see :func:`repro.faultinject.parallel.plan_groups`).  Every restore
runs through **boundary fan-out** (:class:`BoundaryFanOut`): the members
of a group share no restore, and every member maps its point's prefix
as the tape's allocation sizes plus the arrays it owns.  A restore
copies only what a flip can write: the live pipeline state, and the
dead allocation its planned slot's restored binding holds, if any (a
bound array is flipped in place, a read pointer copies into its own
array), thawed from the tape.  Every other dead
allocation is reachable only by a corrupted pointer, and the member's
address space thaws the one allocation a pointer lands in
(:meth:`~repro.faultinject.addrspace.AddressSpace.resolve`), so a
flip costs one thaw, not one per dead allocation.  Fan-out members
additionally carry a convergence watch: once the flip has fired, every
restore point of the live suffix (frame tops and in-frame points alike)
is compared against the golden tape's snapshot of the same point, and
the engine synthesizes the rest of the run instead of executing it as
soon as the member's state equals the golden state apart from a
*residue* the tail reads only in closed form:

* **closed mini-panoramas** (every mini but the current one) — the loop
  never reads or writes them again, they reach the output only through
  the final stack, so the output is the live closed canvases stacked
  over the golden rows from the current mini on;
* **differing pixels of the open mini** (probes off) — the loop only
  stores into the current mini's canvas and coverage, never reads
  them, so with equal ``frames_composited`` the tail composites the
  golden frames through the golden chains; a differing canvas pixel
  that none of those remaining composites stores into keeps the
  member's value in the output, every other one ends golden.  With
  probes on, the tail's warp probes checksum the open canvas, so it
  must equal the tape;
* **a cycle offset** — the golden tail charges the same cycles from an
  equal state, so the run ends at the golden count plus the offset
  (spliced only when that cannot cross the watchdog, so a hang is
  never synthesized).

At an in-frame point the in-flight fields must be equal too: the
frame's table position, its working copy (against the frame table),
its features and, at ``WARP``, the validated chain.  With no residue
this is the exact golden tail.  Most masked runs re-converge at the
first restore point after the fire, which is where the fan-out speedup
comes from; SDCs confined to a closed mini or to open-mini pixels and
drifted cycle counts end there too.

What is *not* bit-identical under fast-forward: telemetry traces (the
skipped prefix emits no spans; a predicted run emits no spans or
observe events at all) and wall-clock-based soft deadlines
(fast-forward strictly reduces wall time).  Campaign results never
depend on either.
"""

from __future__ import annotations

import bisect
import copy
import functools
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.faultinject import addrspace
from repro.faultinject.addrspace import PAGE_SIZE, AddressSpace
from repro.faultinject.injector import InjectionPlan, InjectionRecord
from repro.faultinject.outcomes import CrashKind, Outcome
from repro.faultinject.registers import (
    NUM_REGISTERS,
    AddressBinding,
    ArrayBinding,
    Binding,
    FlipEffect,
    FloatValueBinding,
    IntCellBinding,
    IntValueBinding,
    LivenessModel,
    RegisterFileState,
    RegKind,
    Role,
    SlotEntry,
    flip_bit64,
    flip_pointer,
)
from repro.forensics import probes
from repro.imaging.image import images_equal
from repro.imaging.warp import WarpGeometry, warp_geometry, warp_stores
from repro.observe import events as observe_events
from repro.runtime.context import Cell, CostProfile, ExecutionContext
from repro.summarize.golden import GoldenRun
from repro.summarize.pipeline import (
    FRAME,
    WARP,
    PipelineState,
    _ransac_seed,
    materialize_frames,
    run_vs,
    run_vs_resumed,
)
from repro.summarize.stitcher import MiniPanorama, PairwiseTransform
from repro.vision.orb import FeatureSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultinject.injector import FaultInjector
    from repro.summarize.config import VSConfig
    from repro.video.frames import FrameStream


class SnapshotUnsupported(Exception):
    """The workload uses a construct snapshots cannot represent.

    Raised during capture (e.g. an ``AddressBinding`` with a custom
    ``on_alias`` callback, whose behaviour cannot be rebuilt from its
    :class:`SlotWrite`).  Campaigns degrade gracefully: the workload
    simply runs full executions.
    """


# ---------------------------------------------------------------------------
# Tape data model
# ---------------------------------------------------------------------------

#: Names of the pipeline cells that are live across restore points.
#: A restored write of one must rebind the *restored* cell, not a fresh
#: one, so a fire that corrupts e.g. the frame index corrupts the loop
#: the resumed pipeline is actually running.
_LIVE_CELLS = ("index", "total", "failures")


@dataclass
class AllocRecord:
    """One array the injector would have mapped during the prefix.

    Pure tape data: the :class:`SnapshotRecorder` pins the capture-run
    array only until it freezes it, and the tape never holds it.
    ``frozen`` holds the content at the first restore point where the
    array was no longer live program state, flat, read-only and in the
    narrowest dtype that gives its bytes back exactly (:func:`_narrow`);
    :meth:`thaw` rebuilds the array.  Live arrays are never frozen (they
    are rebuilt from the pipeline snapshot instead).
    """

    aid: int
    dtype: np.dtype
    shape: tuple
    nbytes: int
    frozen: np.ndarray | None = None

    def thaw(self) -> np.ndarray:
        """A fresh writable array of the recorded dtype and shape, with the frozen content."""
        return self.frozen.astype(self.dtype).reshape(self.shape)


#: The dtypes a frozen array may be stored in, narrowest first: an
#: integer array takes the first rung of the integer ladder narrower
#: than its own dtype whose round trip gives its bytes back, a
#: ``float64`` array the first such rung of the float ladder, and any
#: other array keeps its dtype.
_INT_LADDER = tuple(map(np.dtype, ("i1", "u1", "i2", "u2", "i4", "u4")))
_FLOAT_LADDER = tuple(map(np.dtype, ("u1", "i1", "u2", "i2", "f4")))

#: Elements a round trip checks first, and then at a time: most arrays
#: that do not narrow fail in the first few, and no check holds a
#: temporary the size of the array.
_PROBE = 64
_BLOCK = 1 << 14


def _narrow(array: np.ndarray) -> np.ndarray:
    """``array``'s content, flat and read-only, in the narrowest exact ladder dtype.

    A candidate is exact when converting back to ``array.dtype`` gives
    the same bytes (so ``-0.0``, NaN payloads and out-of-range values
    stay in a dtype that holds them); with none, the array keeps its
    own dtype.  The result owns its memory.
    """
    flat = np.ravel(array)
    dtype = flat.dtype
    if dtype == np.float64:
        ladder = _FLOAT_LADDER
    elif dtype.kind in "iu":
        ladder = tuple(step for step in _INT_LADDER if step.itemsize < dtype.itemsize)
    else:
        ladder = ()
    with np.errstate(invalid="ignore", over="ignore"):
        step = next((step for step in ladder if _round_trips(flat, step)), None)
    stored = flat.copy() if step is None else flat.astype(step)
    stored.flags.writeable = False
    return stored


def _round_trips(flat: np.ndarray, dtype: np.dtype) -> bool:
    """Whether ``flat`` comes back bitwise from ``dtype``, checked in blocks."""
    start, stop = 0, _PROBE
    while start < len(flat):
        block = flat[start:stop]
        if block.astype(dtype).astype(flat.dtype).tobytes() != block.tobytes():
            return False
        start, stop = stop, stop + _BLOCK
    return True


@dataclass
class MiniSnapshot:
    """Copy-on-restore state of one mini-panorama at a restore point.

    Immutable once captured, so restore points share one snapshot while
    the mini stays unchanged (every closed mini does).
    """

    canvas: np.ndarray
    coverage: np.ndarray
    frames_composited: int


#: A feature set's ``(coords, descriptors, angles)`` copies.
FeatureArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class FrameSnapshot:
    """Everything needed to re-enter the run at one restore point."""

    #: The loop phase the run resumes at (``PipelineState.phase``).
    phase: str
    cycles: int
    frame_index: int
    total: int
    failures: int
    rng_state: dict
    prev_chain: np.ndarray | None
    #: The previous frame's features, or None before frame 0.
    prev_features: FeatureArrays | None
    #: In-frame points: the current frame's features.  The working
    #: frame copy is not taped: it equals ``frames[frame_index]``.
    features: FeatureArrays | None
    #: ``WARP`` points: the validated chain and the pairwise estimate.
    chained: np.ndarray | None
    pairwise: PairwiseTransform | None
    minis: list[MiniSnapshot]
    outcomes: list
    #: How many allocations existed at this point (prefix of the
    #: tape's alloc list, in first-use order).
    n_allocs: int
    #: aid -> (base_key, byte_offset, is_identity) for allocations that
    #: are live program state at this point.
    live_map: dict[int, tuple[tuple, int, bool]]
    #: The register file's slot assignment: ``(kind, site, name)`` ->
    #: slot, and each kind's round-robin cursor.
    assigned: dict[tuple[RegKind, str, str], int]
    next_slot: dict[RegKind, int]
    profile_by_scope: dict[str, int]
    #: Number of probe events the golden run had emitted by here.
    probe_count: int
    #: Number of fire-log checkpoints logged before this point: a slot
    #: holds its last write at a checkpoint index below it.
    checkpoints: int

    @property
    def label(self) -> str:
        """The point's name in traces: ``b<frame>``, ``b<frame>.<phase>`` in-frame."""
        suffix = "" if self.phase == FRAME else f".{self.phase}"
        return f"b{self.frame_index}{suffix}"


@dataclass(frozen=True)
class SlotWrite:
    """One golden register-file write: the one record of it on the tape.

    A fire at a later checkpoint reads it (:meth:`FastForward.predict`),
    and a member resuming after it rebinds it
    (:meth:`FastForward._build_binding`).
    """

    name: str
    role: Role
    #: The binding's own lease, or None to defer to the liveness model.
    ttl: int | None
    site: str
    written_cycle: int
    #: The binding's class.
    binding: type[Binding]
    #: The allocation an ``ArrayBinding`` or ``AddressBinding`` binds.
    aid: int | None = None
    #: An ``AddressBinding``'s pointer into its allocation, the bytes it
    #: accesses there, and whether it writes them.
    byte_offset: int = 0
    window: int = 0
    writes: bool = False
    #: The loop cell (one of ``_LIVE_CELLS``) an ``IntCellBinding`` binds.
    cell: str | None = None
    #: A kernel-local cell's or a value binding's value when written.
    value: int | float | None = None

    def live_at(self, cycle: int, kind: RegKind, liveness: LivenessModel) -> bool:
        """Whether a fire at ``cycle`` still finds this value inside its lease."""
        ttl = self.ttl if self.ttl is not None else liveness.ttl_for(kind, self.role)
        return cycle - self.written_cycle <= ttl


@dataclass
class FireLog:
    """Every checkpoint and register-file write of the golden run.

    An injected run is the golden run up to its fire, and what the fire
    hits depends only on the checkpoint it fires at and on the slot's
    last write before it — so this log decides every fire that leaves
    the program untouched, every pointer flip that segfaults at the
    fire, most flips of the frame loop's own cells, and, with the
    restore points' checkpoint counts, every flip into state already
    dead where its member resumes, without executing anything (see
    :meth:`FastForward.predict`).
    Per ``(kind, slot)`` only the last write of each checkpoint is kept,
    which is what the register file holds once the checkpoint's window
    is written.
    """

    #: ``ctx.cycles`` of every checkpoint, in run order (nondecreasing).
    cycles: list[int] = field(default_factory=list)
    sites: list[str] = field(default_factory=list)
    #: Per checkpoint, the allocations noted once its window is: the
    #: heap a fire there flips a pointer in.
    n_allocs: list[int] = field(default_factory=list)
    #: Per checkpoint, the probe events the golden run emitted before it.
    probe_counts: list[int] = field(default_factory=list)
    #: ``(kind, slot)`` -> writes in checkpoint order.
    writes: dict[tuple[RegKind, int], list[SlotWrite]] = field(default_factory=dict)
    #: ``(kind, slot)`` -> index of the checkpoint behind each write.
    write_checkpoints: dict[tuple[RegKind, int], list[int]] = field(default_factory=dict)
    #: site filter -> (indices, cycles) of the checkpoints it lets fire.
    _by_filter: dict = field(default_factory=dict, repr=False, compare=False)

    def log_checkpoint(
        self,
        cycle: int,
        site: str,
        n_allocs: int,
        probe_count: int,
        writes: list[tuple[RegKind, int, SlotWrite]],
    ) -> None:
        """Append one checkpoint and its window's ``(kind, slot, write)``s, in order."""
        checkpoint = len(self.cycles)
        self.cycles.append(cycle)
        self.sites.append(site)
        self.n_allocs.append(n_allocs)
        self.probe_counts.append(probe_count)
        for kind, slot, write in writes:
            slot_writes = self.writes.setdefault((kind, slot), [])
            checkpoints = self.write_checkpoints.setdefault((kind, slot), [])
            if checkpoints and checkpoints[-1] == checkpoint:
                slot_writes[-1] = write
            else:
                slot_writes.append(write)
                checkpoints.append(checkpoint)

    def fire_checkpoint(self, target_cycle: int, site_filter: str | None) -> int | None:
        """Index of the checkpoint a plan fires at, or None if it never fires.

        The injector fires at the first checkpoint whose cycle is at or
        past the target and, with a site filter, whose site matches.
        """
        indices, cycles = self.firing_checkpoints(site_filter)
        k = bisect.bisect_left(cycles, target_cycle)
        return indices[k] if k < len(indices) else None

    def firing_checkpoints(self, site_filter: str | None) -> tuple[list[int], list[int]]:
        """Indices and cycles of the checkpoints ``site_filter`` lets fire."""
        cached = self._by_filter.get(site_filter)
        if cached is None:
            indices = [
                index
                for index, site in enumerate(self.sites)
                if site_filter is None or site.startswith(site_filter)
            ]
            cached = (indices, [self.cycles[index] for index in indices])
            self._by_filter[site_filter] = cached
        return cached

    def slot_at(self, kind: RegKind, slot: int, checkpoint: int) -> SlotWrite | None:
        """The slot's contents once ``checkpoint``'s window is written."""
        checkpoints = self.write_checkpoints.get((kind, slot))
        if not checkpoints:
            return None
        k = bisect.bisect_right(checkpoints, checkpoint) - 1
        return self.writes[(kind, slot)][k] if k >= 0 else None


@dataclass(frozen=True)
class Prediction:
    """A run :meth:`FastForward.predict` decides from the fire log."""

    record: InjectionRecord
    outcome: Outcome
    crash_kind: CrashKind | None
    #: The run's final ``ctx.cycles``.
    cycles: int
    #: The run's probe stream: this many golden probe events, then,
    #: for a run with an ``output``, the stitch probe of that output.
    probe_count: int
    #: Why the run is decided: ``dead_fire`` (no flip), ``segfault``
    #: (the flip faults), ``dead_target`` (the flip writes dead state),
    #: or a flip of the frame loop's own cells: ``loop_exit`` (the loop
    #: ends early, or where it would have), ``loop_overrun`` (it runs
    #: off the frame table) or ``loop_reset`` (the failure counter is
    #: reset before anything reads it).
    reason: str
    #: A ``loop_exit`` short of the golden one: the stacked minis the
    #: loop leaves behind, the run's output.
    output: np.ndarray | None = None


@dataclass
class SnapshotTape:
    """The immutable per-workload record all restores are built from."""

    #: Every restore point of the golden run, in run order.
    boundaries: list[FrameSnapshot]
    allocs: list[AllocRecord]
    probe_events: list[tuple[str, int]]
    golden_cycles: int
    #: ``ctx.cycles`` of the golden run when its frame loop exited.
    exit_cycles: int
    frame_shape: tuple[int, int]
    #: The golden output panorama, kept so a fan-out member whose state
    #: re-converges to the tape can synthesize its golden tail without
    #: executing it.
    golden_output: np.ndarray
    #: The golden run's checkpoints and register-file writes, from which
    #: dead, never-firing, segfaulting, dead-target and loop-control
    #: plans are decided without executing.
    fire_log: FireLog
    #: Per mini-panorama, the chain of every golden composite into it,
    #: in order: which pixels a golden tail still stores into an open
    #: mini is decided from these without warping.
    composites: list[list[np.ndarray]]
    boundary_cycles: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.boundary_cycles:
            self.boundary_cycles = [b.cycles for b in self.boundaries]


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


class SnapshotRecorder:
    """Pseudo-injector that snapshots machine state at restore points.

    Mirrors what a real :class:`FaultInjector` does at every checkpoint
    — map each binding's backing array, write the binding into the
    register file — and additionally implements the pipeline's
    ``restore_point`` hook to capture a :class:`FrameSnapshot` at every
    restore point of the loop.  Like the census probe it observes
    every checkpoint of the run (``observing`` is always True), so the
    capture run is *armed*: kernels build the same windows, take the
    same armed-only code paths, and produce the same prefix byte
    content an injected run's prefix would.

    Each recorded array keeps its aid for as long as it lives: a weak
    reference drops its ``id`` key the moment it dies, so a later array
    that reuses the ``id`` gets a fresh aid.  The recorder pins an array
    only until :meth:`_settle` freezes it, so every dead temporary
    is held once, narrowed (:func:`_narrow`); :meth:`release` drops the
    rest when the capture ends, and the tape it leaves behind holds no
    capture-run array.
    """

    observing = True

    def __init__(self) -> None:
        self.regfile = RegisterFileState()
        self.fire_log = FireLog()
        self.boundaries: list[FrameSnapshot] = []
        self.allocs: list[AllocRecord] = []
        #: id -> record of every recorded array still alive.
        self._alloc_by_id: dict[int, AllocRecord] = {}
        #: aid -> weak reference and data pointer of every recorded
        #: array still alive; a dead one's entry is dropped as it dies.
        self._alive: dict[int, tuple[weakref.ref, int]] = {}
        #: aid -> the pinned array of every record not frozen yet: only
        #: these can die at a restore point.
        self._unfrozen: dict[int, np.ndarray] = {}
        #: The capture run's closed mini-panoramas, read-only from the
        #: point they closed at until the capture ends.
        self._closed: list[MiniPanorama] = []
        self.probe: probes.StageProbe | None = None
        self.profile: CostProfile | None = None
        #: The run's frame table: in-frame points check the working
        #: frame copy against it.
        self.frames: list[np.ndarray] = []
        #: The loop's state, from point 0 on (before every checkpoint).
        self._state: PipelineState | None = None

    # -- checkpoint callback (FaultInjector.visit contract) -------------
    def visit(self, ctx: ExecutionContext, window) -> None:
        """Track register-file writes and first-use allocations."""
        cycle = ctx.cycles
        site = window.site
        writes: list[tuple[RegKind, int, SlotWrite]] = []
        for binding in window.bindings:
            backing = getattr(binding, "array", None)
            aid = None if backing is None else self._ensure(backing)
            write = self._slot_write(binding, site, cycle, aid)
            writes.append((binding.kind, self.regfile.write(binding, site, cycle), write))
        self.fire_log.log_checkpoint(
            cycle,
            site,
            len(self.allocs),
            0 if self.probe is None else len(self.probe.events),
            writes,
        )

    def _slot_write(self, binding: Binding, site: str, cycle: int, aid: int | None) -> SlotWrite:
        """The fire log's record of ``binding``, written at ``cycle``, bound to ``aid``."""
        common = (binding.name, binding.role, binding.ttl, site, cycle)
        if isinstance(binding, AddressBinding):
            if binding.on_alias is not None:
                raise SnapshotUnsupported(f"binding {binding.name!r} at {site!r} uses on_alias")
            return SlotWrite(
                *common, AddressBinding, aid, binding.byte_offset, binding.window, binding.writes
            )
        if isinstance(binding, ArrayBinding):
            return SlotWrite(*common, ArrayBinding, aid)
        if isinstance(binding, IntCellBinding):
            cell = _live_cell(binding, self._state)
            value = None if cell is not None else int(binding.cell.value)
            return SlotWrite(*common, IntCellBinding, cell=cell, value=value)
        if isinstance(binding, IntValueBinding):
            return SlotWrite(*common, IntValueBinding, value=binding.value)
        if isinstance(binding, FloatValueBinding):
            return SlotWrite(*common, FloatValueBinding, value=binding.value)
        raise SnapshotUnsupported(f"unknown binding type {type(binding)!r}")

    def _ensure(self, array: np.ndarray) -> int:
        """``array``'s aid, recorded on first use."""
        record = self._alloc_by_id.get(id(array))
        if record is not None:
            return record.aid
        record = AllocRecord(
            aid=len(self.allocs),
            dtype=array.dtype,
            shape=tuple(array.shape),
            nbytes=max(int(array.nbytes), 1),
        )
        self.allocs.append(record)
        self._alloc_by_id[id(array)] = record
        # Weak references call back as their array is deallocated,
        # before anything can reuse its id.
        forget = functools.partial(self._forget, id(array), record.aid)
        self._alive[record.aid] = (weakref.ref(array, forget), array.ctypes.data)
        self._unfrozen[record.aid] = array
        return record.aid

    def _forget(self, key: int, aid: int, _ref: weakref.ref) -> None:
        """A recorded array died: drop its id key and leave the candidate search."""
        del self._alloc_by_id[key]
        del self._alive[aid]

    def release(self) -> None:
        """End the capture: drop every array it holds; the closed minis turn writable."""
        for mini in self._closed:
            mini.canvas.flags.writeable = mini.coverage.flags.writeable = True
        self._closed = []
        # The weak references go first, so no callback runs after them.
        self._alive = {}
        self._alloc_by_id, self._unfrozen, self._state = {}, {}, None

    # -- pipeline hook ---------------------------------------------------
    def restore_point(
        self, ctx: ExecutionContext, rng: np.random.Generator, state: PipelineState
    ) -> None:
        """Capture the snapshot of one restore point."""
        if not self.boundaries and self.fire_log.cycles:
            # Point 0 resumes every plan before point 1, which is exact
            # only when no checkpoint could have fired before it.
            raise SnapshotUnsupported("a checkpoint precedes the first restore point")
        self._state = state
        frame_index = int(state.index.value)
        if state.phase != FRAME and not (
            state.position == frame_index
            and _same_array(state.frame, self.frames[frame_index])
        ):
            # A restore copies the working frame from the frame table.
            raise SnapshotUnsupported("the working frame differs from its golden frame")
        live_map = self._settle(_live_bases(state))
        assigned, next_slot, _ = self.regfile.export_state()
        previous = self.boundaries[-1] if self.boundaries else None
        shared = (previous.prev_features, previous.features) if previous is not None else ()
        self.boundaries.append(
            FrameSnapshot(
                phase=state.phase,
                cycles=ctx.cycles,
                frame_index=frame_index,
                total=int(state.total.value),
                failures=int(state.failures.value),
                rng_state=copy.deepcopy(rng.bit_generator.state),
                prev_chain=None if state.prev_chain is None else state.prev_chain.copy(),
                prev_features=_snapshot_features(state.prev_features, shared),
                features=_snapshot_features(state.features, shared),
                chained=None if state.chained is None else state.chained.copy(),
                pairwise=(
                    None
                    if state.pairwise is None
                    else replace(state.pairwise, transform=state.pairwise.transform.copy())
                ),
                minis=self._snapshot_minis(state.minis, [] if previous is None else previous.minis),
                outcomes=list(state.outcomes),
                n_allocs=len(self.allocs),
                live_map=live_map,
                assigned=assigned,
                next_slot=next_slot,
                profile_by_scope=(
                    {} if self.profile is None else self.profile.by_scope()
                ),
                probe_count=0 if self.probe is None else len(self.probe.events),
                checkpoints=len(self.fire_log.cycles),
            )
        )

    def _snapshot_minis(
        self, minis: list[MiniPanorama], previous: list[MiniSnapshot]
    ) -> list[MiniSnapshot]:
        """The minis' snapshots, each closed one snapshotted once, when it closes.

        A closed mini is never written again: the loop composites into
        the current one only.  Its canvas and coverage turn read-only
        here, so a write into one raises instead of changing it, and it
        shares the snapshot it closed with; :meth:`finish` checks it
        once more when the run ends.
        """
        closed = len(self._closed)
        snapshots = previous[:closed]
        for k in range(closed, len(minis)):
            snapshots.append(_snapshot_mini(minis[k], previous[k] if k < len(previous) else None))
        for mini in minis[closed:-1]:
            mini.canvas.flags.writeable = mini.coverage.flags.writeable = False
            self._closed.append(mini)
        return snapshots

    def finish(self, minis: list[MiniPanorama]) -> None:
        """Check that every closed mini still equals the snapshot it closed with."""
        last = self.boundaries[-1].minis
        for mini, snapshot in zip(minis[: len(self._closed)], last):
            if not _mini_equal(mini, snapshot):
                raise SnapshotUnsupported("a closed mini-panorama changed after it closed")

    def _settle(
        self, live_bases: list[tuple[tuple, np.ndarray]]
    ) -> dict[int, tuple[tuple, int, bool]]:
        """Place the live allocations; freeze the newly dead ones.

        Returns the point's ``live_map``, in aid order.
        :func:`_resolve_live` places an array only if it is a live base
        or its data pointer lies within a base's ``nbytes``.  The pointer
        index narrows each point to those candidates among the arrays
        still alive, and ``_resolve_live`` decides each one exactly, so
        the map equals a scan of every record alive.  A dead array is a
        dead allocation: its stale data pointer places nothing.  An
        allocation frozen at an earlier point stays dead; one that would
        be placed live again is refused.
        """
        alive = self._alive
        aids = np.fromiter(alive, np.int64, len(alive))
        pointers = np.fromiter((pointer for _, pointer in alive.values()), np.uint64, len(alive))
        candidates: set[int] = set()
        for _, base in live_bases:
            record = self._alloc_by_id.get(id(base))
            if record is not None:
                candidates.add(record.aid)
            start = base.ctypes.data
            inside = (pointers >= start) & (pointers < start + base.nbytes)
            candidates.update(aids[inside].tolist())
        live_map: dict[int, tuple[tuple, int, bool]] = {}
        for aid in sorted(candidates):
            record = self.allocs[aid]
            array = alive[aid][0]() if aid in alive else None
            placement = None if array is None else _resolve_live(array, record.nbytes, live_bases)
            if placement is None:
                continue
            if record.frozen is not None:
                raise SnapshotUnsupported(f"allocation {aid} is live again after it died")
            live_map[aid] = placement
        for aid in [aid for aid in self._unfrozen if aid not in live_map]:
            # First restore point where this allocation is dead: its
            # byte content is final from the program's point of view,
            # so freeze it once for all later restores, and unpin it.
            self.allocs[aid].frozen = _narrow(self._unfrozen.pop(aid))
        return live_map


def _live_cell(binding: IntCellBinding, state: PipelineState | None) -> str | None:
    """Which of the loop's ``_LIVE_CELLS`` ``binding`` binds, by identity, or None."""
    if state is not None:
        for name in _LIVE_CELLS:
            if binding.cell is getattr(state, name):
                return name
    return None


def _live_bases(state: PipelineState) -> list[tuple[tuple, np.ndarray]]:
    """The arrays that are live program state at a restore point.

    Everything the resumed pipeline will read *and mutate*: the mini
    panoramas' canvas/coverage buffers, the previous frame's feature
    arrays and, inside a frame, the working frame copy and its feature
    arrays.  All other arrays the injector saw are dead temporaries.
    :meth:`FastForward._restore_app` rebuilds the same keys.
    """
    bases: list[tuple[tuple, np.ndarray]] = []
    for k, mini in enumerate(state.minis):
        bases.append((("mini", k, "canvas"), mini.canvas))
        bases.append((("mini", k, "coverage"), mini.coverage))
    bases.extend(_feature_bases("prev", state.prev_features))
    if state.phase != FRAME:
        bases.append((("frame",), state.frame))
        bases.extend(_feature_bases("current", state.features))
    return bases


def _feature_bases(key: str, features: FeatureSet | None) -> list[tuple[tuple, np.ndarray]]:
    if features is None:
        return []
    return [
        ((key, "coords"), features.coords),
        ((key, "descriptors"), features.descriptors),
        ((key, "angles"), features.angles),
    ]


def _resolve_live(
    array: np.ndarray, nbytes: int, bases: list[tuple[tuple, np.ndarray]]
) -> tuple[tuple, int, bool] | None:
    """Place a recorded array (``nbytes`` as recorded) in a live base, if live.

    Returns ``(base_key, byte_offset, is_identity)``.  Identity matters:
    the restored pipeline re-binds its own live arrays, and those binds
    must id-hit the same address-space allocation the replay created —
    while a *view* sharing the base's memory (a descriptor batch slice)
    must restore as a distinct object, because the full run maps it as
    a separate simulated allocation.
    """
    for key, base in bases:
        if array is base:
            return (key, 0, True)
        if base.nbytes and np.may_share_memory(array, base):
            offset = array.ctypes.data - base.ctypes.data
            if 0 <= offset and offset + nbytes <= base.nbytes:
                return (key, offset, False)
    return None


def _same_array(array: np.ndarray, other: np.ndarray) -> bool:
    """Bitwise equality: unlike ``np.array_equal``, ``-0.0`` differs from ``0.0``."""
    return (
        array.dtype == other.dtype
        and array.shape == other.shape
        and array.tobytes() == other.tobytes()
    )


def _snapshot_features(
    features: FeatureSet | None, shared: tuple[FeatureArrays | None, ...]
) -> FeatureArrays | None:
    """Copies of ``features``: a previous point's copies when verified equal."""
    if features is None:
        return None
    arrays = (features.coords, features.descriptors, features.angles)
    for candidate in shared:
        if candidate is not None and all(map(_same_array, arrays, candidate)):
            return candidate
    return (arrays[0].copy(), arrays[1].copy(), arrays[2].copy())


def _snapshot_mini(mini: MiniPanorama, previous: MiniSnapshot | None) -> MiniSnapshot:
    """``mini``'s snapshot: the previous point's when verified equal."""
    if previous is not None and _mini_equal(mini, previous):
        return previous
    return MiniSnapshot(
        canvas=mini.canvas.copy(),
        coverage=mini.coverage.copy(),
        frames_composited=mini.frames_composited,
    )


def capture_tape(stream: "FrameStream", config: "VSConfig") -> GoldenRun:
    """One instrumented golden run -> the workload's golden run and tape.

    Runs the pipeline once with a :class:`SnapshotRecorder` armed and a
    stage probe capturing.  The armed run computes exactly what a plain
    golden run computes (output, cycles, profile, probe stream), so the
    returned :class:`~repro.summarize.golden.GoldenRun` carries them
    with a :class:`FastForward` handle over the tape.
    """
    frames, frame_shape = materialize_frames(stream, config)
    recorder = SnapshotRecorder()
    recorder.frames = frames
    probe = probes.StageProbe()
    recorder.probe = probe
    profile = CostProfile()
    recorder.profile = profile
    ctx = ExecutionContext(injector=recorder, profile=profile)
    try:
        with probes.capturing(probe), telemetry.span("summarize.golden", ctx=ctx):
            result = run_vs(stream, config, ctx)
        if not recorder.boundaries:
            raise SnapshotUnsupported("the run has no restore point to resume from")
        recorder.finish(result.minis)
    finally:
        recorder.release()
    if probe.last_stage != "stitch":
        # A synthesized tail recomputes the final stitch probe.
        raise SnapshotUnsupported("the run does not end with a stitch probe")
    composites: list[list[np.ndarray]] = [[] for _ in result.minis]
    for outcome in result.outcomes:
        if outcome.status in ("anchor", "stitched"):
            composites[outcome.mini_index].append(outcome.chain)
    if [len(chains) for chains in composites] != [m.frames_composited for m in result.minis]:
        raise SnapshotUnsupported("the frame outcomes do not account for every composite")
    output = result.panorama.copy()
    tape = SnapshotTape(
        boundaries=recorder.boundaries,
        allocs=recorder.allocs,
        probe_events=list(probe.events),
        golden_cycles=ctx.cycles,
        exit_cycles=result.loop_exit_cycles,
        frame_shape=frame_shape if frame_shape is not None else (0, 0),
        golden_output=output,
        fire_log=recorder.fire_log,
        composites=composites,
    )
    return GoldenRun(
        config=config,
        stream_name=stream.name,
        result=result,
        output=output,
        total_cycles=ctx.cycles,
        profile=profile,
        fast_forward=FastForward(tape, stream, config),
    )


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------


class FastForward:
    """Per-workload fast-forward handle: restore-point lookup + restore.

    Built once per ``(config, stream)`` per process (see
    :func:`repro.summarize.golden.golden_with_tape`) and shared by
    every injected run of a campaign.  The tape and the materialized
    frame table are immutable; every fan-out member rebuilds fresh
    mutable state from them.
    """

    def __init__(self, tape: SnapshotTape, stream: "FrameStream", config: "VSConfig") -> None:
        self.tape = tape
        self.config = config
        self.stream_name = stream.name
        self._frames, self._frame_shape = materialize_frames(stream, config)
        #: Byte size of every allocation, in first-use order: the heap
        #: a predicted pointer flip is placed in.
        self._nbytes = np.fromiter(
            (record.nbytes for record in tape.allocs), np.int64, len(tape.allocs)
        )
        #: The largest allocation's pages: while it fits the heap span,
        #: no placement of the tape's sizes raises "too large".
        self._max_pages = -(-int(self._nbytes.max(initial=0)) // PAGE_SIZE)
        #: restore-point index -> shared fan-out state, lazily built.  Hangs
        #: off the handle so "materialize once per worker" falls out of
        #: the per-process golden-run cache in ``summarize.golden``.
        self._fanouts: dict[int, BoundaryFanOut] = {}
        self._snapshot_by_point: dict[tuple[int, str], FrameSnapshot] | None = None
        #: ``(mini index, canvas shape)`` -> the warp geometry of every
        #: golden composite into that mini, lazily built.
        self._geometries: dict[tuple[int, tuple[int, int]], list[WarpGeometry]] = {}
        #: Fire-log checkpoints logged before each restore point, and
        #: before each frame's top (``FRAME`` points, in frame order).
        self._point_checkpoints = [b.checkpoints for b in tape.boundaries]
        self._frame_checkpoints = [b.checkpoints for b in tape.boundaries if b.phase == FRAME]

    def boundary_index_for(self, target_cycle: int) -> int:
        """Index of the last restore point strictly before the cycle.

        Strictly: no checkpoint of the restored suffix may precede the
        point, so no prefix checkpoint the injector never saw could
        have fired.  Targets at or before point 1 resume point 0: no
        checkpoint precedes it (the capture checks this), so resuming
        it is exactly a full run plus the convergence watch.
        """
        index = bisect.bisect_left(self.tape.boundary_cycles, target_cycle) - 1
        return max(index, 0)

    def resume_index(self, target_cycle: int, site_filter: str | None) -> int:
        """Index of the restore point a plan targeting the cycle resumes from.

        The last point no later than the checkpoint the plan fires at:
        every checkpoint before that one lets the plan pass, so the
        injector would not have fired at any the resumed member skips.
        That point is at or after the last one strictly before the
        target, and it is later when no checkpoint lies between the
        target and it.  A plan that never fires resumes the last point
        strictly before its target (:meth:`boundary_index_for`).
        """
        checkpoint = self.tape.fire_log.fire_checkpoint(target_cycle, site_filter)
        if checkpoint is None:
            return self.boundary_index_for(target_cycle)
        return bisect.bisect_right(self._point_checkpoints, checkpoint) - 1

    def group_for(self, target_cycle: int, site_filter: str | None = None) -> int:
        """The frame whose restore points a plan targeting the cycle resumes in.

        The dispatch key of :func:`repro.faultinject.parallel.plan_groups`:
        a campaign runs and journals the plans it executes grouped by
        frame, and each member resumes its own restore point inside the
        group.  The campaign's ``site_filter`` only sharpens the
        grouping: results never depend on it.
        """
        return self.tape.boundaries[self.resume_index(target_cycle, site_filter)].frame_index

    def predict(
        self,
        plan: InjectionPlan,
        liveness: LivenessModel,
        site_filter: str | None,
    ) -> Prediction | None:
        """The run the fire log already decides, else None.

        Mirrors ``FaultInjector.visit``/``_fire`` against the golden
        fire log, and decides without executing:

        * a plan that never fires or fires into a dead register
          (``DEAD_EMPTY``/``DEAD_STALE``): neither path calls ``flip``,
          so program state is untouched and the spent injector ignores
          every later checkpoint — the run is the golden run, MASKED;
        * a flip of a live pointer whose corrupted address is unmapped,
          or whose window crosses the end of the allocation it lands
          in: ``flip`` raises that segfault before writing anything, so
          the run ends CRASH/SEGV (``effect=APPLIED``) at the fire
          checkpoint's cycle, with the golden probe events before it.
          The heap is the one the run's own address space would place:
          the fire checkpoint's allocations, by size, with the plan's
          seed (see :meth:`_landing`);
        * a flip of the frame loop's own cells — its bound, its frame
          index, its failure counter — written before or after the
          member's restore point (:meth:`_loop_control`): the loop ends
          early or where the golden loop ends, runs off the frame
          table, or resets the counter before reading it;
        * a flip of a live value whose slot was written before the
          restore point the member resumes from, when what it writes is
          already dead there (:func:`_dead_target_effect`): a
          kernel-local cell or value, an array that is not live program
          state, a read pointer into such an array whose landing is
          mapped, or a write pointer landing in one.  The resumed member
          flips a restored object nothing reads again, and its spent
          injector replays the golden run: MASKED, with the flip's
          effect.

        Returns None when the flip has to execute: a value written after
        the restore point, a frame index moved inside the frame table, a
        failure counter the frame reads, a live array or landing, or a
        placement that raises (the run raises it too).
        """
        tape = self.tape
        log = tape.fire_log
        record = InjectionRecord(plan)
        checkpoint = log.fire_checkpoint(plan.target_cycle, site_filter)
        if checkpoint is None:
            return self._golden(record, "dead_fire")
        cycle = log.cycles[checkpoint]
        write = log.slot_at(plan.kind, plan.register, checkpoint)
        record.fired = True
        record.fired_cycle = cycle
        record.site = log.sites[checkpoint]
        if site_filter is not None:
            record.in_study = write is not None and write.site.startswith(site_filter)
        if write is None:
            record.effect = FlipEffect.DEAD_EMPTY
            return self._golden(record, "dead_fire")
        record.binding_name = write.name
        record.role = write.role
        if not write.live_at(cycle, plan.kind, liveness):
            record.effect = FlipEffect.DEAD_STALE
            return self._golden(record, "dead_fire")
        if write.cell is not None:
            record.effect = FlipEffect.APPLIED
            return self._loop_control(record, write.cell, checkpoint, plan.bit)
        landing = None
        if write.binding is AddressBinding:
            try:
                landing = self._landing(plan, write, log.n_allocs[checkpoint])
            except (ValueError, RuntimeError):
                return None  # "too crowded" or too large: executed, the flip raises it
            if landing is None:
                record.effect = FlipEffect.APPLIED
                return Prediction(
                    record,
                    Outcome.CRASH,
                    CrashKind.SEGV,
                    cycle,
                    log.probe_counts[checkpoint],
                    "segfault",
                )
        point = tape.boundaries[self.resume_index(plan.target_cycle, site_filter)]
        if log.slot_at(plan.kind, plan.register, point.checkpoints - 1) is not write:
            return None  # written in the live suffix: the member binds it afresh
        effect = _dead_target_effect(point, tape.allocs, write, plan.bit, landing)
        if effect is None:
            return None
        record.effect = effect
        return self._golden(record, "dead_target")

    def _golden(self, record: InjectionRecord, reason: str) -> Prediction:
        """A run that ends as the golden run, probe stream included."""
        tape = self.tape
        return Prediction(
            record, Outcome.MASKED, None, tape.golden_cycles, len(tape.probe_events), reason
        )

    def _loop_control(
        self, record: InjectionRecord, cell: str, checkpoint: int, bit: int
    ) -> Prediction | None:
        """A flip of the loop cell ``cell`` at ``checkpoint``, decided, or None to execute.

        The fire lies in frame ``k``, between the frame's loop test and
        its ``index += 1``; the loop test, that increment and the
        failure branch are the only reads of these cells, and all of
        them see the golden run's values but the flipped one.  With
        ``n`` frames:

        * ``total`` becomes ``T``.  Above ``n``, the golden frames run
          and the loop test at index ``n`` passes: the frame table
          overruns where the golden loop exits.  Otherwise the loop
          exits at index ``max(k + 1, T)``;
        * ``index`` becomes ``k'`` and the increment makes it ``k' + 1``.
          At or above ``n`` the loop exits at ``k + 1``; below ``-n`` the
          next frame lookup overruns the frame table.  Any other index
          re-routes the loop to another frame: executed;
        * ``failures`` is reset once frame ``k`` stitches, before
          anything reads it: MASKED.  A discarded or anchor frame may
          read it: executed.
        """
        n = len(self._frames)
        k = bisect.bisect_right(self._frame_checkpoints, checkpoint) - 1
        if cell == "failures":
            if (k, WARP) in self._by_point():  # only a stitching frame reaches WARP
                return self._golden(record, "loop_reset")
            return None
        if cell == "total":
            bound = flip_bit64(n, bit)
            if bound > n:
                return self._overrun(record, n)
            return self._loop_exit(record, max(k + 1, bound))
        index = flip_bit64(k, bit) + 1
        if index >= n:
            return self._loop_exit(record, k + 1)
        if index < -n:
            return self._overrun(record, k + 1)
        return None

    def _loop_exit(self, record: InjectionRecord, index: int) -> Prediction:
        """A run whose loop test fails at ``index``, with golden state up to it.

        At or past the frame count that is the golden run.  Before it,
        the run stacks the minis of frame ``index``'s top, and the
        golden post-loop cycles follow that top's cycles.
        """
        tape = self.tape
        if index >= len(self._frames):
            return self._golden(record, "loop_exit")
        top = self._by_point()[(index, FRAME)]
        output = np.vstack([mini.canvas for mini in top.minis])
        return Prediction(
            record,
            Outcome.MASKED if images_equal(output, tape.golden_output) else Outcome.SDC,
            None,
            top.cycles + tape.golden_cycles - tape.exit_cycles,
            top.probe_count,
            "loop_exit",
            output,
        )

    def _overrun(self, record: InjectionRecord, index: int) -> Prediction:
        """A run whose loop test passes at ``index`` with an index off the frame table.

        The frame lookup faults at that loop top, before charging
        anything: frame ``index``'s top, or the golden loop exit for
        ``index == n``, where the golden probes end before the stitch.
        """
        tape = self.tape
        top = self._by_point().get((index, FRAME))
        if top is None:
            cycles, probe_count = tape.exit_cycles, len(tape.probe_events) - 1
        else:
            cycles, probe_count = top.cycles, top.probe_count
        return Prediction(
            record, Outcome.CRASH, CrashKind.SEGV, cycles, probe_count, "loop_overrun"
        )

    def _landing(self, plan: InjectionPlan, write: SlotWrite, n_allocs: int) -> int | None:
        """The aid ``plan``'s flip of ``write``'s pointer lands in, None if it segfaults.

        The heap is the fire's: its first ``n_allocs`` allocations,
        placed with the plan's seed.  A flip of a bit below the page
        size, of a pointer inside its own page run, is decided without
        placing anything: every base is page-aligned and page runs
        never overlap, so the address stays in that run — inside the
        pointer's own allocation, or in the unmapped slack after it.
        Raises what placing the heap raises.
        """
        aid, byte_offset, window = write.aid, write.byte_offset, write.window
        nbytes = int(self._nbytes[aid])
        pages = -(-nbytes // PAGE_SIZE)
        if (
            plan.bit < _PAGE_BITS
            and 0 <= byte_offset < pages * PAGE_SIZE
            and self._max_pages < addrspace.HEAP_SPAN // PAGE_SIZE
        ):
            offset = byte_offset ^ (1 << plan.bit)
            return aid if offset < nbytes and offset + window <= nbytes else None
        space = AddressSpace.layout(plan.target_cycle, self._nbytes[:n_allocs])
        address = flip_pointer(space.base(aid) + byte_offset, plan.bit)
        if space.fault(address, window) is not None:
            return None
        return space.holder(address)

    def fanout(self, index: int) -> "BoundaryFanOut":
        """The shared fan-out state for restore point ``index`` (lazy)."""
        fan = self._fanouts.get(index)
        if fan is None:
            fan = BoundaryFanOut(self, index)
            self._fanouts[index] = fan
            telemetry.counter_inc("campaign.fanout.groups")
        return fan

    def _by_point(self) -> dict[tuple[int, str], FrameSnapshot]:
        """``(frame index, phase)`` -> the snapshot of that restore point."""
        if self._snapshot_by_point is None:
            self._snapshot_by_point = {
                (b.frame_index, b.phase): b for b in self.tape.boundaries
            }
        return self._snapshot_by_point

    def _residue(
        self,
        snapshot: FrameSnapshot,
        ctx: ExecutionContext,
        rng: np.random.Generator,
        state: PipelineState,
    ) -> "Residue | None":
        """What the member's loop state still differs from ``snapshot`` in.

        None when it differs in anything the loop reads forward of the
        restore point; otherwise the closed-form :class:`Residue` that
        :meth:`_synthesize_tail` completes the run from.  Cheap fields
        first, so runs that stay divergent pay almost nothing.
        """
        # ``state.outcomes`` and ``state.pairwise`` are deliberately not
        # compared: forward of a restore point the loop only appends
        # outcomes (``pairwise`` feeds nothing else), and the member's
        # own per-frame outcomes are not part of its result.
        if (
            int(state.total.value) != snapshot.total
            or int(state.failures.value) != snapshot.failures
            or len(state.minis) != len(snapshot.minis)
            or (state.prev_chain is None) != (snapshot.prev_chain is None)
            or (state.prev_features is None) != (snapshot.prev_features is None)
            or (snapshot.phase != FRAME and state.position != snapshot.frame_index)
        ):
            return None
        offset = ctx.cycles - snapshot.cycles
        end = self.tape.golden_cycles + offset
        if ctx.watchdog_cycles is not None and end > ctx.watchdog_cycles:
            return None  # the watchdog decides this run: execute it
        if rng.bit_generator.state != snapshot.rng_state:
            return None
        if state.prev_chain is not None and not _same_array(state.prev_chain, snapshot.prev_chain):
            return None
        if snapshot.phase == WARP and not _same_array(state.chained, snapshot.chained):
            return None
        if snapshot.prev_features is not None and not _features_equal(
            state.prev_features, snapshot.prev_features
        ):
            return None
        if snapshot.phase != FRAME and not (
            _features_equal(state.features, snapshot.features)
            and _same_array(state.frame, self._frames[snapshot.frame_index])
        ):
            return None
        # The current mini (``state.current``) is ``minis[-1]``.
        open_pixels = _NO_PIXELS
        if state.minis:
            mini, snap = state.minis[-1], snapshot.minis[-1]
            if probes.active():
                # The tail's warp probes checksum the open canvas.
                if not _mini_equal(mini, snap):
                    return None
            elif mini.frames_composited != snap.frames_composited:
                return None
            else:
                open_pixels = np.flatnonzero(mini.canvas != snap.canvas)
        closed = sum(
            not _mini_equal(mini, snap) for mini, snap in zip(state.minis[:-1], snapshot.minis)
        )
        return Residue(cycle_offset=offset, closed_minis=closed, open_pixels=open_pixels)

    def _synthesize_tail(
        self,
        ctx: ExecutionContext,
        snapshot: FrameSnapshot,
        residue: "Residue",
        state: PipelineState,
    ) -> np.ndarray:
        """Complete a re-converged run from the tape, without executing.

        At ``snapshot`` the member's loop state equals the golden run's
        up to ``residue``, and the loop forward of a restore point is a
        pure function of what it reads — so the rest of the run would
        replay the golden run verbatim.  Emit what it would have
        emitted: the golden probe tail from this point on, the golden
        final cycles plus the offset, the output stacked from the live
        closed minis over the golden rows from the current mini on —
        with the open mini's differing pixels that no remaining
        composite stores into kept — and its stitch probe.
        """
        tape = self.tape
        probes.replay_prefix(tape.probe_events[snapshot.probe_count : -1])
        # The one golden-tail tally: the registry counts these events.
        observe_events.emit(
            "golden_tail",
            frame=snapshot.frame_index,
            phase=snapshot.phase,
            skipped_probe_events=len(tape.probe_events) - snapshot.probe_count,
            cycle_offset=residue.cycle_offset,
            closed_minis=residue.closed_minis,
            open_pixels=int(residue.open_pixels.size),
        )
        ctx.preload(tape.golden_cycles + residue.cycle_offset)
        closed = state.minis[:-1]
        rows = sum(mini.canvas.shape[0] for mini in closed)
        output = np.vstack([mini.canvas for mini in closed] + [tape.golden_output[rows:]])
        if residue.open_pixels.size:
            mini = state.minis[-1]
            kept = self._unstored(len(closed), mini, residue.open_pixels)
            output[rows : rows + mini.canvas.shape[0]].flat[kept] = mini.canvas.flat[kept]
        probes.record("stitch", output)
        return output

    def _unstored(self, mini_index: int, mini: MiniPanorama, pixels: np.ndarray) -> np.ndarray:
        """The open mini's flat ``pixels`` no remaining golden composite stores into.

        The golden tail composites into the open mini through the
        chains the tape kept, from its ``frames_composited``-th on;
        :func:`~repro.imaging.warp.warp_stores` decides each store
        with the kernel's own arithmetic, at these pixels only.
        """
        key = (mini_index, mini.canvas.shape)
        geometries = self._geometries.get(key)
        if geometries is None:
            # The golden chains never change: derive each warp's box
            # and inverse once per tape.
            geometries = self._geometries[key] = [
                warp_geometry(chain, self._frame_shape, mini.canvas.shape)
                for chain in self.tape.composites[mini_index]
            ]
        rows, cols = np.divmod(pixels, mini.canvas.shape[1])
        for geometry in geometries[mini.frames_composited :]:
            unstored = ~warp_stores(geometry, self._frame_shape, rows, cols)
            pixels, rows, cols = pixels[unstored], rows[unstored], cols[unstored]
        return pixels

    # -- application state ------------------------------------------------
    def _restore_app(
        self, snapshot: FrameSnapshot
    ) -> tuple[PipelineState, dict[tuple, np.ndarray]]:
        """Fresh pipeline state at ``snapshot``, and its live bases by key.

        Rebuilds the keys :func:`_live_bases` placed at capture, so a
        restored binding of a live array rebinds these objects.
        """
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

        state = PipelineState(
            minis=minis,
            outcomes=list(snapshot.outcomes),
            current=minis[-1] if minis else None,
            prev_features=_restore_features(snapshot.prev_features),
            prev_chain=None if snapshot.prev_chain is None else snapshot.prev_chain.copy(),
            failures=Cell(snapshot.failures),
            index=Cell(snapshot.frame_index),
            total=Cell(snapshot.total),
            phase=snapshot.phase,
            position=snapshot.frame_index,
            features=_restore_features(snapshot.features),
            chained=None if snapshot.chained is None else snapshot.chained.copy(),
            # Read-only past this point: the member shares the tape's.
            pairwise=snapshot.pairwise,
        )
        if snapshot.phase != FRAME:
            state.frame = self._frames[snapshot.frame_index].copy()
            live_bases[("frame",)] = state.frame
        for key, features in (("prev", state.prev_features), ("current", state.features)):
            live_bases.update(_feature_bases(key, features))
        # Every live base above is a copy, and so are the chains.
        telemetry.counter_inc(
            "campaign.fanout.cow_clones",
            len(live_bases) + (state.prev_chain is not None) + (state.chained is not None),
        )
        return state, live_bases

    def _build_binding(
        self, write: SlotWrite, kind: RegKind, array: np.ndarray | None, state: PipelineState
    ) -> Binding:
        """The binding ``write`` wrote into a ``kind`` slot, over the member's ``array``.

        ``array`` is the member's own copy of the allocation ``write``
        binds, if any.  A kernel-local cell or value is dead at every
        restore point, so a fresh cell or a ``_discard_*`` callback
        stands in for it.
        """
        cls, name, role, ttl = write.binding, write.name, write.role, write.ttl
        if cls is AddressBinding:
            return AddressBinding(
                name,
                array,
                byte_offset=write.byte_offset,
                writes=write.writes,
                window=write.window,
                ttl=ttl,
            )
        if cls is ArrayBinding:
            return ArrayBinding(name, array, kind, role=role, ttl=ttl)
        if cls is IntCellBinding:
            cell = Cell(write.value) if write.cell is None else getattr(state, write.cell)
            return IntCellBinding(name, cell, role=role, ttl=ttl)
        if cls is IntValueBinding:
            return IntValueBinding(name, write.value, _discard_int, role=role, ttl=ttl)
        return FloatValueBinding(name, write.value, _discard_float, ttl=ttl)


#: Address bits below the page size: a flip there stays in its page.
_PAGE_BITS = PAGE_SIZE.bit_length() - 1


def _dead_target_effect(
    point: FrameSnapshot,
    allocs: list[AllocRecord],
    write: SlotWrite,
    bit: int,
    landing: int | None,
) -> FlipEffect | None:
    """The effect of flipping ``write`` as restored at ``point``, if it writes dead state.

    ``landing`` is the aid a pointer flip's window lands in.  None when
    the flip can reach what the resumed pipeline reads: a live cell, a
    live array, a read pointer into a live array, a write pointer
    landing in a live or post-``point`` allocation, or a dtype
    ``ArrayBinding.flip`` raises on.
    """
    if write.binding is ArrayBinding:
        dtype = allocs[write.aid].dtype
        if write.aid in point.live_map or not (
            dtype in (np.float64, np.float32) or np.issubdtype(dtype, np.integer)
        ):
            return None
        return FlipEffect.TRUNCATED if bit >= dtype.itemsize * 8 else FlipEffect.APPLIED
    if write.binding is AddressBinding:
        # A read copies into its own array, a write into the landing.
        written = landing if write.writes else write.aid
        if written < point.n_allocs and written not in point.live_map:
            return FlipEffect.APPLIED
        return None
    # A fresh Cell or a ``_discard_*`` callback; the loop's own cells are live.
    return FlipEffect.APPLIED if write.cell is None else None


def _restore_features(arrays: FeatureArrays | None) -> FeatureSet | None:
    if arrays is None:
        return None
    coords, descriptors, angles = arrays
    return FeatureSet(coords.copy(), descriptors.copy(), angles.copy())


def _discard_int(value: int) -> None:
    """Stand-in apply for a dead kernel-local integer value binding."""


def _discard_float(value: float) -> None:
    """Stand-in apply for a dead kernel-local float value binding."""


# ---------------------------------------------------------------------------
# Boundary fan-out
# ---------------------------------------------------------------------------


class BoundaryFanOut:
    """Restore source for all injections resuming at one restore point.

    Holds nothing the size of the prefix: every member maps the point's
    prefix as the tape's allocation sizes plus its own arrays.
    Restores are destructive (a fired flip may corrupt whatever it
    reaches), so a member copies exactly what its flip can write: the
    live pipeline state, the dead array its planned slot's restored
    binding holds (thawed from the tape), and — through
    :meth:`~repro.faultinject.addrspace.AddressSpace.resolve` — the one
    dead allocation a corrupted pointer lands in, thawed the same way.
    Nothing writable is shared between members, and the tape stays
    pristine: its frozen arrays are read-only.  The differential suite
    checks campaigns byte-for-byte against unrestored full runs.
    """

    def __init__(self, fast_forward: FastForward, index: int) -> None:
        self.fast_forward = fast_forward
        self.index = index
        self.snapshot = fast_forward.tape.boundaries[index]
        #: Whether a member has resumed here yet.
        self._resumed = False

    def resume_member(self, ctx: ExecutionContext) -> np.ndarray:
        """Restore this point into ``ctx`` and run the live suffix.

        ``ctx`` must be a fresh context carrying a real
        :class:`FaultInjector` whose plan resumes at this point
        (:meth:`FastForward.resume_index`).  Returns the run's output
        panorama, exactly as the full workload closure would.
        """
        snapshot = self.snapshot
        if not self._resumed:
            self._resumed = True
            telemetry.counter_inc("campaign.fanout.shared_restores")
        elif observe_events.enabled():
            telemetry.counter_inc(f"campaign.fanout.{snapshot.label}.restores_saved")
        if observe_events.enabled():
            telemetry.counter_inc(f"campaign.fanout.{snapshot.label}.members")
        ff = self.fast_forward
        injector = ctx.injector
        with telemetry.span(f"fanout.suffix.{snapshot.label}", ctx=ctx):
            state, live_bases = ff._restore_app(snapshot)
            self._restore_machine(injector, live_bases, state)
            ctx.preload(snapshot.cycles, snapshot.profile_by_scope)
            probes.replay_prefix(ff.tape.probe_events[: snapshot.probe_count])
            rng = np.random.default_rng(_ransac_seed(ff.config, ff.stream_name))
            rng.bit_generator.state = copy.deepcopy(snapshot.rng_state)
            # The watch only observes until it proves the rest of the run
            # is a golden replay up to a closed-form residue.
            injector.restore_point = _ConvergenceWatch(injector, ff)
            try:
                result = run_vs_resumed(
                    ff.config, ctx, state, rng, ff._frames, ff._frame_shape
                )
            except _GoldenTailReached as reached:
                return ff._synthesize_tail(ctx, reached.snapshot, reached.residue, state)
            return result.panorama

    def _restore_machine(
        self,
        injector: "FaultInjector",
        live_bases: dict[tuple, np.ndarray],
        state: PipelineState,
    ) -> None:
        """Rebuild the member's address space and register file.

        The register file gets the point's slot assignment and, in the
        planned slot, its last write before the point: the injector
        reads no other slot.
        """
        ff = self.fast_forward
        snapshot = self.snapshot
        plan = injector.plan
        allocs = ff.tape.allocs
        write = ff.tape.fire_log.slot_at(plan.kind, plan.register, snapshot.checkpoints - 1)
        # aid -> the member's own array: its live arrays and, at most,
        # one private clone of a dead one.
        private: dict[int, np.ndarray] = {}
        if write is not None and write.aid is not None and write.aid not in snapshot.live_map:
            # A flip writes a bound array in place, and a read pointer
            # copies into its own array: the planned binding's dead
            # array is thawed into the member's own.
            private[write.aid] = allocs[write.aid].thaw()
            telemetry.counter_inc("campaign.fanout.cow_clones")
        for aid, (key, offset, identity) in snapshot.live_map.items():
            base = live_bases[key]
            if identity:
                private[aid] = base
            else:
                record = allocs[aid]
                flat = base.reshape(-1).view(np.uint8)
                private[aid] = (
                    flat[offset : offset + record.nbytes].view(record.dtype).reshape(record.shape)
                )
        # Replay the prefix's first-use allocation sequence, in order,
        # into the injected run's fresh address space: the heap layout
        # (and the RNG draws behind it, made when placement is first
        # forced) is bit-identical to a full run's.  Placement reads the
        # tape's sizes; a dead allocation is thawed only if a pointer
        # lands in it.
        injector.space.note_prefix(
            ff._nbytes[: snapshot.n_allocs], lambda aid: allocs[aid].thaw(), private
        )

        slots: dict[RegKind, list[SlotEntry | None]] = {
            kind: [None] * NUM_REGISTERS for kind in RegKind
        }
        if write is not None:
            array = None if write.aid is None else private[write.aid]
            binding = ff._build_binding(write, plan.kind, array, state)
            slots[plan.kind][plan.register] = SlotEntry(binding, write.site, write.written_cycle)
        injector.regfile.import_state(snapshot.assigned, snapshot.next_slot, slots)


#: An empty pixel list: the open mini equals the tape.
_NO_PIXELS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Residue:
    """What a re-converged member still differs from the golden tape in.

    Everything else the loop reads forward of the restore point is
    equal, so the rest of the run is the golden tail shifted by
    ``cycle_offset``, with ``closed_minis`` differing closed canvases
    and the ``open_pixels`` of the open canvas that the tail leaves
    alone in its output.  The all-zero residue is the exact golden
    tail.
    """

    cycle_offset: int
    closed_minis: int
    #: Flat indices of the open mini's canvas pixels that differ from
    #: the tape; always empty while probes are on.
    open_pixels: np.ndarray


def _features_equal(features: FeatureSet, arrays: FeatureArrays) -> bool:
    coords, descriptors, angles = arrays
    return (
        _same_array(features.coords, coords)
        and _same_array(features.descriptors, descriptors)
        and _same_array(features.angles, angles)
    )


def _mini_equal(mini: MiniPanorama, snap: MiniSnapshot) -> bool:
    return (
        mini.frames_composited == snap.frames_composited
        and np.array_equal(mini.coverage, snap.coverage)
        and np.array_equal(mini.canvas, snap.canvas)
    )


class _GoldenTailReached(Exception):
    """Control-flow signal: a fired member re-converged to the tape.

    Raised by :class:`_ConvergenceWatch` from the pipeline's
    ``restore_point`` hook and caught inside
    ``BoundaryFanOut.resume_member`` —
    it never escapes to outcome classification.
    """

    def __init__(self, snapshot: FrameSnapshot, residue: Residue) -> None:
        super().__init__(f"golden tail at {snapshot.label}")
        self.snapshot = snapshot
        self.residue = residue


class _ConvergenceWatch:
    """``restore_point`` hook armed on fan-out members.

    Until the injector fires it is a single attribute check per restore
    point.  After the fire, every restore point the member reaches —
    frame tops and the in-frame ``MATCH`` and ``WARP`` points — takes
    the member's residue against the tape's snapshot of the same
    ``(frame index, phase)`` (:meth:`FastForward._residue`) and raises
    :class:`_GoldenTailReached` at the first one that has one.  That is
    a *proof*: ``PipelineState`` plus the RANSAC RNG and the cycle
    counter is everything the loop reads forward of a restore point,
    the fired injector is spent and never consults machine state again,
    and the residue is exactly what the tail reads only in closed form.
    """

    __slots__ = ("injector", "fast_forward")

    def __init__(self, injector: "FaultInjector", fast_forward: FastForward) -> None:
        self.injector = injector
        self.fast_forward = fast_forward

    def __call__(
        self, ctx: ExecutionContext, rng: np.random.Generator, state: PipelineState
    ) -> None:
        if not self.injector.record.fired:
            return
        ff = self.fast_forward
        snapshot = ff._by_point().get((int(state.index.value), state.phase))
        if snapshot is None:
            return
        residue = ff._residue(snapshot, ctx, rng, state)
        if residue is not None:
            raise _GoldenTailReached(snapshot, residue)
