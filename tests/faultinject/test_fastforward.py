"""Differential suite: production campaigns against an unrestored oracle.

Every injected run of a campaign resumes through boundary fan-out (see
``src/repro/faultinject/fastforward.py``): it restores the last golden
restore point before the checkpoint it fires at (a frame start, or a
point inside a frame), runs only the live suffix, and may synthesize a
golden tail once it re-converges; a run the golden fire log decides (a
dead fire or none, a segfault at the fire, a flip into state dead at
the restore point, a flip of the frame loop's own cells) is not
executed at all.  The
contract is that none of this is visible in the results.  The oracle
is a :class:`FaultMonitor` without a fast-forward handle — every run
executes from cycle 0 — driven per plan with the
campaign's own ``(seed + 1) * 1_000_003 + index`` RNG derivation.  The
property below generates (approximation, register kind, seed, plan
subset, worker count, probe, interrupt point, site filter, liveness
model, pinned first plan) and requires the campaign's serialized
records to equal the oracle's, outcome classes, cycle counts, SDC
payloads and divergence records included.

A genuine HANG, which no uniform draw reaches on the tiny workload, is
a targeted oracle test, and so is each residue a golden tail may be
spliced past (a closed mini, differing open-mini pixels, a cycle
offset) or must not be (a drift past the watchdog), and a splice at
each kind of in-frame restore point.  The fire-log predictor is checked
exhaustively against the real injector at every golden checkpoint, its
segfault decisions by a property over live pointer flips, its
dead-target decisions by a property over restored live values, and its
loop-control decisions by a property over flips of the frame loop's
own cells; the snapshot-restore property and the restore-point lookups
are checked directly, and so is the premise of restoring only the
planned register: an injector reads no other.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import hashlib
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.experiments import QUICK, TINY, input_stream, vs_workload
from repro.faultinject import addrspace
from repro.faultinject import campaign as campaign_module
from repro.faultinject.addrspace import PAGE_SIZE, AddressSpace
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.fastforward import BoundaryFanOut, FastForward
from repro.faultinject.injector import FaultInjector, InjectionPlan, InjectionRecord
from repro.faultinject.journal import ABORT_AFTER_ENV, CampaignInterrupted, serialize_result
from repro.faultinject.monitor import DEFAULT_HANG_FACTOR, FaultMonitor
from repro.faultinject.outcomes import CrashKind, HangKind, Outcome
from repro.faultinject.parallel import VSWorkloadSpec
from repro.faultinject.registers import (
    NUM_REGISTERS,
    AddressBinding,
    ArrayBinding,
    FlipEffect,
    FloatValueBinding,
    IntCellBinding,
    IntValueBinding,
    LivenessModel,
    RegisterFileState,
    RegKind,
    flip_bit64,
    flip_pointer,
)
from repro.runtime.context import ExecutionContext
from repro.runtime.errors import SegmentationFault
from repro.observe import events
from repro.summarize.approximations import config_for
from repro.summarize.golden import golden_run, golden_with_tape
from repro.summarize.pipeline import FRAME, MATCH, WARP

#: The VS variants the property draws from.
APPROXIMATIONS = ("VS", "VS_KDS")

#: Liveness models by name.  The short one leaves data values live only
#: at the checkpoint that writes them, so many GPR fires are stale and
#: a fire on a value written that very checkpoint has age == lease.
LIVENESS = {
    "default": LivenessModel(),
    "short": LivenessModel(
        gpr_data_ttl=0, gpr_address_ttl=50_000, gpr_control_ttl=50_000, fpr_data_ttl=0
    ),
}

#: Site filters the property draws from (``imaging.warp`` is the hot
#: function study's prefix).
SITE_FILTERS = (None, "imaging.warp", "vision.")


@functools.lru_cache(maxsize=None)
def _workload(approximation: str):
    """Tiny workload for one variant: (stream, config, golden, workload, spec)."""
    stream = input_stream("input1", TINY)
    config = config_for(approximation)
    golden = golden_run(stream, config)
    spec = VSWorkloadSpec.for_stream(stream, config)
    assert spec is not None
    return stream, config, golden, vs_workload(stream, config), spec


@pytest.fixture(scope="module")
def vs():
    return _workload("VS")


class _CheckpointLog:
    """Pseudo-injector that logs ``(site, cycle)`` of every checkpoint."""

    observing = True

    def __init__(self) -> None:
        self.events: list[tuple[str, int]] = []

    def visit(self, ctx, window) -> None:
        self.events.append((window.site, ctx.cycles))


@functools.lru_cache(maxsize=None)
def _checkpoints(approximation: str) -> tuple[tuple[str, int], ...]:
    """``(site, cycle)`` of every checkpoint of the golden run, logged independently."""
    log = _CheckpointLog()
    _workload(approximation)[3](ExecutionContext(injector=log))
    return tuple(log.events)


def _checkpoint_cycles(approximation: str) -> tuple[int, ...]:
    return tuple(cycle for _site, cycle in _checkpoints(approximation))


#: Checkpoint site prefixes of the open-mini splice property.
OPEN_MINI_SITES = ("imaging.warp.", "vision.fast.", "vision.matching.")


#: Pins that flip bit 3 of a named pointer at the middle golden fire of
#: a stage that finds it in a register: pin -> (the stage's checkpoint
#: site prefix, the binding's name, the phase of the restore point the
#: plan resumes).  Each pinned plan must execute, from that point.
STAGE_PINS = {
    # The matcher's live descriptor pointer.
    "in-match": ("vision.matching", "descB_ptr", MATCH),
    # A write through the live canvas pointer: a restored write pointer
    # landing in a live base.
    "in-warp": ("imaging.warp", "canvas_ptr", WARP),
    # The working frame's pointer while it is live in the middle of
    # matching: the read copies shifted frame bytes over the frame the
    # run composites next.  The corruption reaches the warp probe only
    # if the restored binding is the restored frame copy itself.
    "frame_ptr-in-match": ("vision.matching", "frame_ptr", MATCH),
}


def _pinned_plan(approximation: str, pin: str | None) -> dict | None:
    """The fields ``pin`` replaces in the first plan, or None."""
    if pin == "boundary-0":
        return {"target_cycle": 1}
    if pin == "past-last-checkpoint":
        return {"target_cycle": _checkpoint_cycles(approximation)[-1] + 1}
    if pin in STAGE_PINS:
        prefix, name, phase = STAGE_PINS[pin]
        stream, config, _, _, _ = _workload(approximation)
        fast_forward = golden_with_tape(stream, config).fast_forward
        log = fast_forward.tape.fire_log
        fires = [
            (cycle, register)
            for k, (site, cycle) in enumerate(zip(log.sites, log.cycles))
            if site.startswith(prefix) and log.fire_checkpoint(cycle, None) == k
            for register in range(NUM_REGISTERS)
            if getattr(log.slot_at(RegKind.GPR, register, k), "name", None) == name
        ]
        cycle, register = fires[len(fires) // 2]
        plan = InjectionPlan(cycle, RegKind.GPR, register, 3)
        # A predictor change must not quietly turn the pin into a
        # decided run, or move it to another restore point.
        assert fast_forward.predict(plan, LivenessModel(), None) is None, (pin, plan)
        point = fast_forward.tape.boundaries[fast_forward.resume_index(cycle, None)]
        assert point.phase == phase, (pin, plan, point.label)
        return {"target_cycle": cycle, "kind": RegKind.GPR, "register": register, "bit": 3}
    return None


#: (approximation, index, plan, probe, site filter, liveness) -> the
#: oracle's serialized record.  Plans of one seed are a prefix-stable
#: sequence, so examples sharing a seed share oracle runs.
_ORACLE: dict[tuple, dict] = {}


def _oracle_record(
    approximation: str, config: CampaignConfig, liveness: str, index: int, plan
) -> dict:
    key = (approximation, index, plan, config.probe, config.site_filter, liveness)
    if key not in _ORACLE:
        _, _, golden, workload, _ = _workload(approximation)
        monitor = FaultMonitor(
            workload,
            golden.output,
            golden.total_cycles,
            liveness=LIVENESS[liveness],
            site_filter=config.site_filter,
            probe=config.probe,
        )
        rng = np.random.default_rng((config.seed + 1) * 1_000_003 + index)
        _ORACLE[key] = serialize_result(monitor.run_injected(plan, rng))
    return _ORACLE[key]


def _run(approximation: str, config: CampaignConfig, journal: Path | None, resume=False):
    _, _, golden, workload, spec = _workload(approximation)
    return run_campaign(
        workload,
        golden.output,
        golden.total_cycles,
        config,
        spec=spec,
        journal_path=journal,
        resume=resume,
    )


def _pinning_first_plan(fields: dict | None):
    """``draw_plans`` with the first plan's ``fields`` replaced."""
    draw = campaign_module.draw_plans

    def pinned(config, golden_cycles):
        plans = draw(config, golden_cycles)
        if fields is not None and plans:
            plans[0] = dataclasses.replace(plans[0], **fields)
        return plans

    return mock.patch.object(campaign_module, "draw_plans", pinned)


@settings(
    derandomize=True,
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    approximation=st.sampled_from(APPROXIMATIONS),
    kind=st.sampled_from([RegKind.GPR, RegKind.FPR]),
    seed=st.integers(0, 2**16),
    n_injections=st.integers(1, 6),
    workers=st.sampled_from([1, 2]),
    probe=st.booleans(),
    interrupt_after=st.sampled_from([None, 1, 2]),
    site_filter=st.sampled_from(SITE_FILTERS),
    liveness=st.sampled_from(sorted(LIVENESS)),
    pin=st.sampled_from(
        [None, "boundary-0", "past-last-checkpoint", *STAGE_PINS]
    ),
)
# Masked, SDC and crash runs, in a journaled pool interrupted mid-way.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=8,
    n_injections=16,
    workers=2,
    probe=False,
    interrupt_after=1,
    site_filter=None,
    liveness="default",
    pin=None,
)
# Divergence records, on the other variant, in-process.
@example(
    approximation="VS_KDS",
    kind=RegKind.FPR,
    seed=10,
    n_injections=6,
    workers=1,
    probe=True,
    interrupt_after=None,
    site_filter=None,
    liveness="default",
    pin=None,
)
# An FPR campaign that is almost all dead fires: predicted, not executed,
# through a journal interrupt and resume.
@example(
    approximation="VS",
    kind=RegKind.FPR,
    seed=3,
    n_injections=8,
    workers=1,
    probe=True,
    interrupt_after=1,
    site_filter=None,
    liveness="short",
    pin=None,
)
# A target past the last checkpoint: the plan never fires.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=5,
    n_injections=3,
    workers=1,
    probe=False,
    interrupt_after=None,
    site_filter="imaging.warp",
    liveness="default",
    pin="past-last-checkpoint",
)
# A target before boundary 1 resumes boundary 0 (plan 0 hits a live
# register there; plan 1 is predicted).
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=3,
    n_injections=3,
    workers=2,
    probe=True,
    interrupt_after=None,
    site_filter=None,
    liveness="default",
    pin="boundary-0",
)
# Plan 2 raises the loop bound: a frame-table overrun decided from the
# tape, with probes on.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=2,
    n_injections=3,
    workers=1,
    probe=True,
    interrupt_after=None,
    site_filter=None,
    liveness="default",
    pin=None,
)
# Plan 14 is an SDC confined to a closed mini with a cycle offset, plan
# 16 a decided overrun crash; in a journaled pool interrupted mid-way.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=1,
    n_injections=17,
    workers=2,
    probe=False,
    interrupt_after=1,
    site_filter=None,
    liveness="default",
    pin=None,
)
# The first plan, in the middle of a mid-run frame's matching, resumes
# that frame's MATCH point and flips the matcher's live descriptor
# pointer.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=5,
    n_injections=3,
    workers=1,
    probe=True,
    interrupt_after=None,
    site_filter=None,
    liveness="default",
    pin="in-match",
)
# The first plan, inside a mid-run frame's warp, resumes that frame's
# WARP point and smashes the live canvas through its restored
# canvas_ptr; in a journaled pool interrupted mid-way.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=0,
    n_injections=4,
    workers=2,
    probe=False,
    interrupt_after=1,
    site_filter=None,
    liveness="default",
    pin="in-warp",
)
# frame_ptr flipped while matching: the restored binding must be the
# restored working frame, or the warp probe would not diverge.
@example(
    approximation="VS",
    kind=RegKind.GPR,
    seed=5,
    n_injections=3,
    workers=1,
    probe=True,
    interrupt_after=None,
    site_filter=None,
    liveness="default",
    pin="frame_ptr-in-match",
)
def test_campaign_records_match_oracle(
    approximation,
    kind,
    seed,
    n_injections,
    workers,
    probe,
    interrupt_after,
    site_filter,
    liveness,
    pin,
):
    """The plan subset is the first ``n_injections`` plans of ``seed``,
    the first one's target optionally pinned."""
    config = CampaignConfig(
        n_injections=n_injections,
        kind=kind,
        seed=seed,
        workers=workers,
        probe=probe,
        site_filter=site_filter,
        liveness=LIVENESS[liveness],
    )
    with tempfile.TemporaryDirectory() as tmp, _pinning_first_plan(
        _pinned_plan(approximation, pin)
    ):
        journal = Path(tmp) / "campaign.jsonl" if interrupt_after is not None else None
        try:
            with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: str(interrupt_after or "")}):
                campaign = _run(approximation, config, journal)
        except CampaignInterrupted:
            campaign = _run(approximation, config, journal, resume=True)
    records = [serialize_result(result) for result in campaign.results]
    expected = [
        _oracle_record(approximation, config, liveness, index, result.plan)
        for index, result in enumerate(campaign.results)
    ]
    assert len(records) == n_injections
    assert records == expected


class TestHangEquivalence:
    """A directed control-register flip that produces a genuine HANG.

    Natural uniform draws on the tiny workload never hang (RANSAC
    converges before its budget), so the plan is aimed at a live
    ``vision.ransac.hypotheses`` checkpoint: flipping bit 63 of
    ``ransac_iter`` drives the iteration counter hugely negative and the
    hypothesis loop burns simulated cycles until the watchdog trips.
    """

    def _hang_plan(self, workload, fast_forward) -> InjectionPlan:
        log = _CheckpointLog()
        workload(ExecutionContext(injector=log))
        hypothesis_cycles = [
            cycle for site, cycle in log.events if site == "vision.ransac.hypotheses"
        ]
        assert hypothesis_cycles, "tiny workload must reach RANSAC"
        target = hypothesis_cycles[len(hypothesis_cycles) // 2]
        # The slot ransac_iter occupies is decided by the register file's
        # first-bind round-robin; read it off the captured tape rather
        # than hard-coding an allocation-order-dependent number.
        assigned = fast_forward.tape.boundaries[-1].assigned
        register = assigned[(RegKind.GPR, "vision.ransac.hypotheses", "ransac_iter")]
        return InjectionPlan(
            target_cycle=target, kind=RegKind.GPR, register=register, bit=63
        )

    def test_hang_outcome_identical(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        assert fast_forward is not None
        plan = self._hang_plan(workload, fast_forward)
        assert fast_forward.boundary_index_for(plan.target_cycle) > 0

        full = FaultMonitor(workload, golden.output, golden.total_cycles)
        fast = FaultMonitor(
            workload, golden.output, golden.total_cycles, fast_forward=fast_forward
        )
        full_result = full.run_injected(plan, np.random.default_rng(123))
        fast_result = fast.run_injected(plan, np.random.default_rng(123))
        assert full_result.outcome is Outcome.HANG
        assert full_result.hang_kind is HangKind.SIMULATED
        assert serialize_result(full_result) == serialize_result(fast_result)


class TestSpliceEquivalence:
    """Directed runs whose golden tail splices past a residue, or must not.

    Each plan aims one bit at a binding: the slot it occupies is read off
    the tape's register file (as in :class:`TestHangEquivalence`) and the
    target is the middle golden checkpoint of its site (or of the site
    ``at``) within a window of frames.  Every record must equal the
    unrestored monitor's byte for byte, probes on and off; the
    ``golden_tail`` events of the fast-forward run show whether the tail
    was synthesized, at which restore point, and past which residue.
    """

    def _plan(
        self, vs, site: str, name: str, bit: int, frames: tuple[int, int], pick=None, at=None
    ):
        stream, config, _, _, _ = vs
        tape = golden_with_tape(stream, config).fast_forward.tape
        register = tape.boundaries[-1].assigned[(RegKind.GPR, site, name)]
        starts = {b.frame_index: b.cycles for b in tape.boundaries if b.phase == FRAME}
        lo, hi = (starts[frame] for frame in frames)
        at = at or site
        targets = [c for s, c in _checkpoints("VS") if s == at and lo < c < hi]
        assert targets, f"no {at} checkpoint between frames {frames}"
        target = targets[len(targets) // 2 if pick is None else pick]
        return InjectionPlan(target, RegKind.GPR, register, bit)

    def _frame_total_plan(self, vs, bit: int, frame: int) -> InjectionPlan:
        return self._plan(vs, "summarize.pipeline.frame", "frame_total", bit, (frame, frame + 1))

    def _drift_plan(self, vs) -> InjectionPlan:
        # The second row of one frame's matcher: cutting its row loop
        # short drops rows no accepted match came from.
        return self._plan(vs, "vision.matching.hamming", "match_row", 32, (14, 15), pick=1)

    def _compare(self, vs, plan, probe: bool, hang_factor: float = DEFAULT_HANG_FACTOR):
        """(oracle result, golden-tail payloads of the fast-forward run)."""
        stream, config, golden, workload, _ = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        monitors = [
            FaultMonitor(
                workload,
                golden.output,
                golden.total_cycles,
                hang_factor=hang_factor,
                probe=probe,
                fast_forward=handle,
            )
            for handle in (None, fast_forward)
        ]
        expected = monitors[0].run_injected(plan, np.random.default_rng(11))
        tails: list[dict] = []
        previous = events.current()
        events.install(
            events.EventBus(
                [lambda e: tails.append(dict(e.payload)) if e.kind == "golden_tail" else None]
            )
        )
        try:
            result = monitors[1].run_injected(plan, np.random.default_rng(11))
        finally:
            events.restore(previous)
        assert serialize_result(result) == serialize_result(expected)
        return expected, tails

    @pytest.mark.parametrize("probe", [False, True])
    def test_raised_bound_overrun_crash_splices(self, vs, probe):
        """A high bit of ``frame_total`` only raises the loop bound: the
        run replays the golden frames and overruns the frame table where
        the golden loop exits.  The tape decides it before any member
        executes, so no golden tail is spliced (see
        :class:`TestLoopControlFlips`)."""
        plan = self._frame_total_plan(vs, bit=40, frame=6)
        expected, tails = self._compare(vs, plan, probe)
        stream, config, _, _, _ = vs
        tape = golden_with_tape(stream, config).fast_forward.tape
        assert expected.outcome is Outcome.CRASH and expected.crash_kind is CrashKind.SEGV
        assert expected.cycles == tape.exit_cycles
        assert tails == []
        if probe:
            assert expected.divergence.last_stage != "stitch"

    @pytest.mark.parametrize("probe", [False, True])
    def test_lowered_bound_executes(self, vs, probe):
        """Clearing the top set bit of ``frame_total`` ends the loop early:
        the run stops at a frame top short of the golden end, an SDC with
        no golden tail (the fire log decides it, see
        :class:`TestLoopControlFlips`)."""
        n_frames = len(_workload("VS")[0])
        plan = self._frame_total_plan(vs, bit=n_frames.bit_length() - 1, frame=4)
        expected, tails = self._compare(vs, plan, probe)
        assert expected.record.binding_name == "frame_total"
        assert expected.outcome is Outcome.SDC
        assert tails == []

    @pytest.mark.parametrize("probe", [False, True])
    def test_closed_mini_sdc_splices(self, vs, probe):
        """A warp gather flip corrupts the first mini-panorama.  Probed,
        the tail waits for the next mini to open and the output is the
        corrupted closed canvas over the golden rows; unprobed, it
        splices at the next frame with the pixel as an open-mini residue."""
        stream, config, _, _, _ = vs
        tape = golden_with_tape(stream, config).fast_forward.tape
        closes = next(b.frame_index for b in tape.boundaries if len(b.minis) == 2)
        plan = self._plan(vs, "imaging.warp.gather", "gather_x", 53, (1, closes - 1))
        expected, tails = self._compare(vs, plan, probe)
        assert expected.outcome is Outcome.SDC
        if probe:
            assert len(tails) == 1 and tails[0]["closed_minis"] >= 1
        else:
            assert len(tails) == 1 and tails[0]["frame"] < closes
            assert (tails[0]["closed_minis"], tails[0]["open_pixels"]) == (0, 1)

    @pytest.mark.parametrize("probe", [False, True])
    def test_splices_at_match_point(self, vs, probe):
        """A flip into this frame's FAST threshold, still leased but never
        read again once detection returned, while the frame's descriptors
        are built: the features come out golden, so the tail splices at
        the frame's ``match`` point.  (The threshold is written after the
        frame's top, where the member resumes, so the fire log cannot
        decide it: a flip into the previous frame's matcher row counter
        would be decided without executing.)"""
        plan = self._plan(
            vs, "vision.fast.detect", "fast_thresh", 3, (12, 13), at="vision.orb.descriptors"
        )
        expected, tails = self._compare(vs, plan, probe)
        assert expected.outcome is Outcome.MASKED
        assert expected.record.binding_name == "fast_thresh"
        assert [(t["frame"], t["phase"]) for t in tails] == [(12, MATCH)]

    @pytest.mark.parametrize("probe", [False, True])
    def test_splices_at_warp_point(self, vs, probe):
        """A RANSAC consensus-count flip that leaves the model unchanged:
        the chain is validated golden, so the tail splices at the frame's
        ``warp`` point, before its composite."""
        plan = self._plan(vs, "vision.ransac.hypotheses", "best_count", 0, (5, 6))
        expected, tails = self._compare(vs, plan, probe)
        assert expected.outcome is Outcome.MASKED
        assert [(t["frame"], t["phase"], t["open_pixels"]) for t in tails] == [(5, WARP, 0)]

    @pytest.mark.parametrize("probe", [False, True])
    def test_open_mini_pixel_survives(self, vs, probe):
        """A gather flip mis-samples one pixel of the open mini and no
        later composite stores there: unprobed, the tail splices at the
        next frame and keeps the member's pixel, an SDC."""
        plan = self._plan(vs, "imaging.warp.gather", "gather_x", 0, (2, 3))
        expected, tails = self._compare(vs, plan, probe)
        assert expected.outcome is Outcome.SDC
        if not probe:
            assert [(t["frame"], t["phase"], t["open_pixels"]) for t in tails] == [(3, FRAME, 1)]
        else:
            assert all(t["open_pixels"] == 0 for t in tails)

    @pytest.mark.parametrize("probe", [False, True])
    def test_open_mini_pixel_overwritten(self, vs, probe):
        """The same flip at the frame's last gather: a later stitch into
        the same mini overwrites the pixel, so the spliced output is the
        golden one, a mask."""
        plan = self._plan(vs, "imaging.warp.gather", "gather_x", 0, (2, 3), pick=-1)
        expected, tails = self._compare(vs, plan, probe)
        assert expected.outcome is Outcome.MASKED
        if not probe:
            assert [(t["frame"], t["phase"], t["open_pixels"]) for t in tails] == [(3, FRAME, 1)]
        else:
            assert all(t["open_pixels"] == 0 for t in tails)

    # Each example runs one resumed member and one full run; the budget
    # is a tenth of the active profile's, so ``--hypothesis-profile
    # ci-deep`` searches 100 cases.
    @given(data=st.data())
    @settings(
        deadline=None,
        max_examples=settings.default.max_examples // 10,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_open_mini_fire_matches_oracle(self, vs, data):
        """A GPR flip at a warp, FAST or matcher checkpoint of a frame
        that composites into an open mini — into a register that stage
        binds, or any register — yields the unrestored run's record,
        probes on and off, wherever the watch splices it."""
        stream, config, golden, workload, _ = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        tape = fast_forward.tape
        first = next(b.cycles for b in tape.boundaries if b.minis)
        prefix = data.draw(st.sampled_from(OPEN_MINI_SITES))
        target = data.draw(
            st.sampled_from(
                [c for s, c in _checkpoints("VS") if s.startswith(prefix) and c > first]
            )
        )
        bound = sorted(
            slot
            for (kind, site, _), slot in tape.boundaries[-1].assigned.items()
            if kind is RegKind.GPR and site.startswith(prefix)
        )
        register = data.draw(
            st.one_of(st.sampled_from(bound), st.integers(0, NUM_REGISTERS - 1))
        )
        plan = InjectionPlan(target, RegKind.GPR, register, data.draw(st.integers(0, 63)))
        self._compare(vs, plan, probe=data.draw(st.booleans()))

    @pytest.mark.parametrize("probe", [False, True])
    def test_cycle_drift_mask_splices(self, vs, probe):
        """A matcher row flip changes the work done but not the result:
        the golden tail is spliced at the drifted cycle count."""
        plan = self._drift_plan(vs)
        expected, tails = self._compare(vs, plan, probe)
        assert expected.outcome is Outcome.MASKED
        assert len(tails) == 1 and tails[0]["cycle_offset"] != 0
        assert tails[0]["closed_minis"] == 0

    @pytest.mark.parametrize("probe", [False, True])
    def test_drift_past_watchdog_executes(self, vs, probe):
        """The same drift under a watchdog one cycle short of the drifted
        end: splicing would miss the hang, so the run executes into it."""
        stream, config, golden, _, _ = vs
        plan = self._drift_plan(vs)
        _, tails = self._compare(vs, plan, probe)
        end = golden.total_cycles + tails[0]["cycle_offset"]
        hang_factor = (end - 0.5) / golden.total_cycles
        expected, tails = self._compare(vs, plan, probe, hang_factor=hang_factor)
        assert expected.outcome is Outcome.HANG
        assert tails == []


class TestPreFirstBoundary:
    def test_pre_first_boundary_resumes_boundary_0(self, vs):
        """A target before boundary 1 resumes boundary 0 (cycle 0, no
        allocations, empty register file) — a full run plus the
        convergence watch — and is bit-identical to the oracle, for a
        live fire and for a dead one."""
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        boundary = fast_forward.tape.boundaries[0]
        assert boundary.cycles == 0 and boundary.n_allocs == 0
        production = FaultMonitor(
            workload, golden.output, golden.total_cycles, fast_forward=fast_forward
        )
        oracle = FaultMonitor(workload, golden.output, golden.total_cycles)
        assert fast_forward.boundary_index_for(1) == 0
        plans = [
            InjectionPlan(target_cycle=1, kind=RegKind.GPR, register=register, bit=0)
            for register in range(NUM_REGISTERS)
        ]

        def predicted(plan):
            prediction = fast_forward.predict(plan, LivenessModel(), None)
            return prediction is not None and prediction.outcome is Outcome.MASKED

        live = next(plan for plan in plans if not predicted(plan))
        dead = next(plan for plan in plans if predicted(plan))
        for plan in (live, dead):
            a = production.run_injected(plan, np.random.default_rng(7))
            b = oracle.run_injected(plan, np.random.default_rng(7))
            assert serialize_result(a) == serialize_result(b)


@functools.lru_cache(maxsize=None)
def _tiny(which: str, algorithm: str):
    """Golden output and fast-forward handle of one tiny workload."""
    stream = input_stream(which, TINY)
    config = config_for(algorithm)
    return golden_run(stream, config).output, golden_with_tape(stream, config).fast_forward


TINY_WORKLOADS = [(which, algorithm) for which in ("input1", "input2") for algorithm in ("VS", "VS_RFD")]


class TestSnapshotRestore:
    def test_every_boundary_reproduces_golden_run(self):
        """Restoring any restore point, in-frame ones included, under a
        never-firing injector must complete the run with the golden
        output and the golden cycle count — the snapshot captured the
        loop state at that point exactly.  Every tiny workload.
        """
        for which, algorithm in TINY_WORKLOADS:
            golden_output, fast_forward = _tiny(which, algorithm)
            tape = fast_forward.tape
            assert {b.phase for b in tape.boundaries} == {FRAME, MATCH, WARP}

            never = tape.golden_cycles * 10
            for index, point in enumerate(tape.boundaries):
                plan = InjectionPlan(target_cycle=never, kind=RegKind.GPR, register=0, bit=0)
                injector = FaultInjector(plan, rng=np.random.default_rng(0))
                ctx = ExecutionContext(injector=injector, watchdog_cycles=tape.golden_cycles * 6)
                output = fast_forward.fanout(index).resume_member(ctx)
                assert not injector.record.fired
                assert ctx.cycles == tape.golden_cycles, (which, algorithm, point.label)
                assert np.array_equal(output, golden_output), (which, algorithm, point.label)

    def test_boundary_lookup_is_strictly_before(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        tape = fast_forward.tape
        cycles = tape.boundary_cycles
        assert cycles == sorted(cycles) and cycles[0] == 0
        # Every target has a restore point: up to point 1 it is point 0.
        assert fast_forward.boundary_index_for(0) == 0
        assert fast_forward.boundary_index_for(1) == 0
        assert fast_forward.boundary_index_for(cycles[1]) == 0
        assert fast_forward.boundary_index_for(cycles[1] + 1) == 1
        assert tape.boundaries[fast_forward.boundary_index_for(cycles[1] + 1)].cycles == cycles[1]
        # A target exactly on a point resolves to the previous one, for
        # in-frame points as for frame starts.
        for index in range(1, len(cycles)):
            assert tape.boundaries[fast_forward.boundary_index_for(cycles[index])].cycles < cycles[index]
            assert fast_forward.boundary_index_for(cycles[index] + 1) == index
        on_point = next(k for k, b in enumerate(tape.boundaries) if b.phase == WARP)
        assert fast_forward.boundary_index_for(cycles[on_point]) == on_point - 1
        assert tape.boundaries[on_point - 1].phase == MATCH
        assert fast_forward.boundary_index_for(cycles[-1] + 1) == len(cycles) - 1


    @given(target=st.integers(0, 2**31), near_point=st.booleans(), offset=st.integers(-1, 1))
    @settings(deadline=None, max_examples=settings.default.max_examples)
    def test_lookup_equals_scan(self, vs, target, near_point, offset):
        """The bisected lookups equal scans: the cycle lookup is the last
        point strictly before the target; the resume lookup is the last
        point logged no later than the checkpoint the target fires at
        (the cycle lookup's point or a later one), or the cycle lookup's
        when it never fires; and the dispatch group is the resume
        point's frame."""
        stream, config, _, _, _ = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        tape = fast_forward.tape
        cycles = tape.boundary_cycles
        if near_point:
            target = max(0, cycles[target % len(cycles)] + offset)
        else:
            target %= tape.golden_cycles + 2
        before = [k for k, cycle in enumerate(cycles) if cycle < target]
        strictly_before = before[-1] if before else 0
        assert fast_forward.boundary_index_for(target) == strictly_before
        fires = [k for k, cycle in enumerate(tape.fire_log.cycles) if cycle >= target]
        if fires:
            no_later = [k for k, b in enumerate(tape.boundaries) if b.checkpoints <= fires[0]]
            resume = no_later[-1]
        else:
            resume = strictly_before
        assert resume >= strictly_before
        assert fast_forward.resume_index(target, None) == resume
        assert fast_forward.group_for(target) == tape.boundaries[resume].frame_index


class TestInFramePoints:
    @pytest.mark.parametrize("which, algorithm", TINY_WORKLOADS)
    def test_live_map_places_frame_and_features_by_identity(self, which, algorithm):
        """At every in-frame point the working frame copy and the current
        features are live by identity, so the register file's bindings of
        them (frame_ptr, desc_bytes, kp_angles) rebind the restored
        objects; frame starts place neither."""
        _, fast_forward = _tiny(which, algorithm)
        tape = fast_forward.tape
        in_frame = ("frame",), ("current", "coords"), ("current", "descriptors"), ("current", "angles")
        for point in tape.boundaries:
            identities = {key for key, _, identity in point.live_map.values() if identity}
            keys = {key for key, _, _ in point.live_map.values()}
            if point.phase == FRAME:
                assert not keys & set(in_frame), point.label
                continue
            assert ("frame",) in identities, point.label
            if len(point.features[0]):
                # describe() bound the descriptor and angle arrays, and
                # its key-point batches as views of the coordinates.
                assert {("current", "descriptors"), ("current", "angles")} <= identities
                assert ("current", "coords") in keys
            state, live_bases = fast_forward._restore_app(point)
            assert live_bases[("frame",)] is state.frame
            assert live_bases[("current", "descriptors")] is state.features.descriptors
            assert np.array_equal(state.frame, fast_forward._frames[point.frame_index])

    # Each example runs one resumed member and one full run; the budget
    # is a tenth of the active profile's, so ``--hypothesis-profile
    # ci-deep`` searches 100 cases.
    @given(data=st.data())
    @settings(
        deadline=None,
        max_examples=settings.default.max_examples // 10,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_in_frame_fire_matches_oracle(self, vs, data):
        """A plan whose target falls after an in-frame restore point
        resumes that point (or a later one no later than its fire) and
        yields the unrestored run's record."""
        stream, config, golden, workload, _ = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        tape = fast_forward.tape
        cycles = [*tape.boundary_cycles, tape.golden_cycles]
        index = data.draw(
            st.sampled_from([k for k, b in enumerate(tape.boundaries) if b.phase != FRAME])
        )
        target = data.draw(st.integers(cycles[index] + 1, cycles[index + 1]))
        assert fast_forward.boundary_index_for(target) == index
        plan = InjectionPlan(
            target,
            data.draw(st.sampled_from(list(RegKind))),
            data.draw(st.integers(0, NUM_REGISTERS - 1)),
            data.draw(st.integers(0, 63)),
        )
        probe = data.draw(st.booleans())
        results = [
            FaultMonitor(
                workload, golden.output, golden.total_cycles, probe=probe, fast_forward=handle
            ).run_injected(plan, np.random.default_rng(target))
            for handle in (fast_forward, None)
        ]
        assert serialize_result(results[0]) == serialize_result(results[1])


class TestTelemetryCounters:
    def test_fastforward_counters_surface(self, vs):
        stream, config, golden, workload, spec = vs
        # A fresh tracer, so the counts cover this campaign alone even
        # when REPRO_TRACE=1 has tracing on for the whole session.
        tracer = telemetry.Tracer()
        previous = events.current()
        events.install(events.EventBus([tracer]))
        try:
            run_campaign(
                workload,
                golden.output,
                golden.total_cycles,
                CampaignConfig(n_injections=8, kind=RegKind.GPR, seed=8),
                spec=spec,
            )
            registry = tracer.registry
        finally:
            events.restore(previous)
        hits = registry.counter("campaign.fastforward.hits")
        predicted = registry.counter("campaign.fastforward.predicted")
        assert hits + predicted == 8
        assert hits >= 1 and predicted >= 1
        assert registry.counter("campaign.fastforward.skipped_cycles") > 0


class _FireOracle:
    """Pseudo-injector firing real ``FaultInjector``s at every checkpoint.

    One lookup injector per target cycle shares the golden register
    file and visits every checkpoint until it fires; which checkpoint
    that is is decided by the real ``visit``.  At that checkpoint, one
    injector per (liveness, kind, register) visits the same window from
    a copy of the register file as it stood before the checkpoint, so
    its record is exactly what a full injected run would hold.  The
    copy is shared by those injectors: re-writing a window's bindings
    is idempotent, and ``flip`` is patched by the test to record the
    call instead of mutating anything.
    """

    observing = True

    def __init__(self, targets, liveness: dict, site_filter, flips: list) -> None:
        self.space = AddressSpace()
        self.rng = np.random.default_rng(0)
        self.golden = self._injector(InjectionPlan(2**62, RegKind.GPR, 0, 0), None, None)
        self.pending = []
        for target in targets:
            lookup = self._injector(InjectionPlan(target, RegKind.GPR, 0, 0), None, site_filter)
            lookup.regfile = self.golden.regfile
            self.pending.append(lookup)
        self.liveness = liveness
        self.site_filter = site_filter
        self.flips = flips
        #: (liveness name, plan) -> (record, called flip)
        self.records: dict[tuple[str, InjectionPlan], tuple[InjectionRecord, bool]] = {}

    def _injector(self, plan, liveness, site_filter) -> FaultInjector:
        return FaultInjector(
            plan, space=self.space, rng=self.rng, liveness=liveness, site_filter=site_filter
        )

    def visit(self, ctx, window) -> None:
        before = RegisterFileState()
        before.import_state(*self.golden.regfile.export_state())
        self.golden.visit(ctx, window)
        pending = []
        for lookup in self.pending:
            lookup.visit(ctx, window)
            if not lookup.record.fired:
                pending.append(lookup)
                continue
            for name, liveness in self.liveness.items():
                for kind in RegKind:
                    for register in range(NUM_REGISTERS):
                        plan = InjectionPlan(lookup.plan.target_cycle, kind, register, 0)
                        injector = self._injector(plan, liveness, self.site_filter)
                        injector.regfile = before
                        self.flips.clear()
                        injector.visit(ctx, window)
                        assert injector.record.fired
                        self.records[(name, plan)] = (injector.record, bool(self.flips))
        self.pending = pending

    def never_fired(self) -> set[int]:
        return {lookup.plan.target_cycle for lookup in self.pending}


class TestFireLogPrediction:
    """``FastForward.predict`` against the real injector, exhaustively.

    Targets are 0, every distinct golden checkpoint cycle and one past
    the last checkpoint; each is tried for every register of both kinds
    under two liveness models.  A run whose injector would not call
    ``flip`` must be decided MASKED, any run the predictor decides must
    carry the injector's record (a bit-0 pointer flip whose window
    crosses the end of its allocation is a decided crash), and a run
    that flips yet is decided MASKED must flip a slot written before the
    member's restore point, whose restored write is the one the fire
    reads and not one of the frame loop's own cells, or one of those
    cells.
    """

    @pytest.mark.parametrize("site_filter", [None, "imaging.warp"])
    def test_predictor_matches_injector_at_every_checkpoint(self, vs, site_filter):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        cycles = _checkpoint_cycles("VS")
        targets = sorted({0, *cycles, cycles[-1] + 1})
        flips: list[str] = []

        def record_flip(binding, bit, rng, space):
            flips.append(binding.name)
            return FlipEffect.APPLIED

        oracle = _FireOracle(targets, LIVENESS, site_filter, flips)
        with contextlib.ExitStack() as patches:
            for cls in (
                IntCellBinding,
                IntValueBinding,
                FloatValueBinding,
                ArrayBinding,
                AddressBinding,
            ):
                patches.enter_context(mock.patch.object(cls, "flip", record_flip))
            output = workload(ExecutionContext(injector=oracle))
        assert np.array_equal(output, golden.output)
        never = oracle.never_fired()
        assert cycles[-1] + 1 in never

        tape = fast_forward.tape
        log = tape.fire_log
        predicted = executed = dead_targets = 0
        for name, liveness in LIVENESS.items():
            for target in targets:
                for kind in RegKind:
                    for register in range(NUM_REGISTERS):
                        plan = InjectionPlan(target, kind, register, 0)
                        if target in never:
                            record, flipped = FaultInjector(plan).record, False
                        else:
                            record, flipped = oracle.records[(name, plan)]
                        prediction = fast_forward.predict(plan, liveness, site_filter)
                        masked = prediction is not None and prediction.outcome is Outcome.MASKED
                        assert flipped or masked, (name, plan, record)
                        if prediction is None:
                            executed += 1
                            continue
                        predicted += 1
                        assert prediction.record == record, (name, plan)
                        if flipped and masked and prediction.reason != "dead_target":
                            assert prediction.reason in ("loop_exit", "loop_reset"), plan
                            assert record.binding_name in LOOP_CELLS, (name, plan)
                        elif flipped and masked:
                            dead_targets += 1
                            checkpoint = log.fire_checkpoint(target, site_filter)
                            point = tape.boundaries[fast_forward.resume_index(target, site_filter)]
                            restored = log.slot_at(kind, register, point.checkpoints - 1)
                            assert restored is log.slot_at(kind, register, checkpoint), plan
                            assert restored.cell is None, plan
        assert predicted and executed and dead_targets


class TestPlannedSlotReads:
    """The premise of the planned-slot restore, checked on full runs.

    A resumed member restores the slot assignment and only its planned
    slot's last write before the restore point; every other slot starts
    empty.  That is exact because the injector reads no other slot: over
    full unrestored runs of uniform plans, GPR and FPR, with and without
    the hot-function site filter, every ``RegisterFileState.entry`` call
    asks for ``(plan.kind, plan.register)``, once, at the fire.
    """

    @pytest.mark.parametrize("kind", list(RegKind))
    @pytest.mark.parametrize("site_filter", [None, "imaging.warp"])
    def test_injector_reads_only_the_planned_slot(self, vs, kind, site_filter):
        _, _, golden, workload, _ = vs
        monitor = FaultMonitor(
            workload, golden.output, golden.total_cycles, site_filter=site_filter
        )
        reads: list[tuple[RegKind, int]] = []
        entry = RegisterFileState.entry

        def spy(regfile, slot_kind, slot):
            reads.append((slot_kind, slot))
            return entry(regfile, slot_kind, slot)

        fired = 0
        with mock.patch.object(RegisterFileState, "entry", spy):
            for seed in (0, 1, 2):
                config = CampaignConfig(n_injections=3, kind=kind, seed=seed)
                for plan in campaign_module.draw_plans(config, golden.total_cycles):
                    reads.clear()
                    result = monitor.run_injected(plan, np.random.default_rng(seed))
                    fired += result.record.fired
                    expected = [(plan.kind, plan.register)] if result.record.fired else []
                    assert reads == expected, plan
        assert fired


class TestDeadStandIns:
    """Pointer flips into a dead allocation of a restored prefix.

    A restored member places the prefix's dead allocations by their
    tape sizes, thaws only the one its planned slot's restored binding
    holds, and gets a thawed copy of the allocation a pointer lands in
    from ``AddressSpace.resolve``.  A write into the tape's frozen
    arrays would raise ``ValueError`` on read-only bytes: an ABORT
    outcome, not a test error.  So each record is checked against the
    unrestored oracle, the ABORT is ruled out, the tape's stored arrays
    are checked unchanged, and the next member of the group must read
    the bytes the dead array held before any member ran.

    In the real sparse heap a flipped pointer almost never lands in
    another allocation, so the heap span shrinks to four times the
    workload's pages, for the oracle and the fast-forward run alike, and
    the first bit whose flip lands in a dead allocation is taken.
    """

    #: The frame whose start is resumed: a late one keeps every suffix short.
    BOUNDARY = -3

    @pytest.mark.parametrize(
        "name, restored",
        [
            # A write pointer bound at the fire checkpoint smashes a
            # dead allocation's bytes.
            ("canvas_ptr", False),
            # A read pointer restored from the fire log: its own array
            # is the member's dead clone, written with a dead
            # allocation's bytes.
            ("src_ptr", True),
        ],
    )
    def test_flip_into_stand_in_matches_oracle(self, vs, name, restored):
        stream, config, golden, workload, _ = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        tape = fast_forward.tape
        index = [k for k, b in enumerate(tape.boundaries) if b.phase == FRAME][self.BOUNDARY]
        boundary = tape.boundaries[index]
        register = next(
            slot
            for (kind, _site, binding), slot in boundary.assigned.items()
            if kind is RegKind.GPR and binding == name
        )
        target = boundary.cycles + 1
        log = tape.fire_log
        write = log.slot_at(RegKind.GPR, register, log.fire_checkpoint(target, None))
        assert write.name == name
        assert (write.written_cycle < boundary.cycles) == restored
        fan = fast_forward.fanout(index)

        def stored(record):
            frozen = record.frozen
            if frozen is None:
                return None
            return frozen.dtype, hashlib.sha256(frozen.tobytes()).digest()

        # The tape's stored arrays, and each dead array's bytes, before
        # any member runs.
        digests = [stored(record) for record in tape.allocs]
        pristine = {
            record.aid: record.thaw().tobytes()
            for record in tape.allocs[: boundary.n_allocs]
            if record.aid not in boundary.live_map
        }

        landings: list = []
        resolve = AddressSpace.resolve

        def spy(space, address):
            owned = len(space._arrays)
            alloc, offset = resolve(space, address)
            landings.append((address, alloc) if len(space._arrays) > owned else None)
            return alloc, offset

        #: Per resumed member, the dead aids its restore cloned.
        cloned: list[list[int]] = []
        restore_machine = BoundaryFanOut._restore_machine

        def restore_spy(fanout, injector, live_bases, state):
            restore_machine(fanout, injector, live_bases, state)
            space = injector.space
            cloned.append([aid for aid in space._arrays if aid not in fanout.snapshot.live_map])

        monitors = [
            FaultMonitor(workload, golden.output, golden.total_cycles, fast_forward=handle)
            for handle in (fast_forward, None)
        ]
        # A restored read pointer's flip writes only its own dead clone,
        # so the fire log decides it; it executes here all the same, to
        # check the member's copies.
        undecided = mock.patch.object(FastForward, "predict", lambda self, *args: None)
        pages = sum(-(-record.nbytes // PAGE_SIZE) for record in tape.allocs)
        with contextlib.ExitStack() as patches:
            patches.enter_context(mock.patch.object(addrspace, "HEAP_SPAN", 4 * pages * PAGE_SIZE))
            patches.enter_context(mock.patch.object(AddressSpace, "resolve", spy))
            patches.enter_context(
                mock.patch.object(BoundaryFanOut, "_restore_machine", restore_spy)
            )
            with undecided if restored else contextlib.nullcontext():
                for bit in range(12, 40):
                    landings.clear()
                    plan = InjectionPlan(target, RegKind.GPR, register, bit)
                    result = monitors[0].run_injected(plan, np.random.default_rng(11))
                    if landings and landings[-1] is not None:
                        break
                else:
                    pytest.fail(f"no {name} flip lands in a dead allocation")
            address, private = landings[-1]
            member_clones = cloned[-1]
            expected = monitors[1].run_injected(plan, np.random.default_rng(11))
            prediction = fast_forward.predict(plan, LivenessModel(), None)

            # The next member of the group resolves the same address to
            # the pristine bytes.
            space = AddressSpace(seed=target)
            never = InjectionPlan(tape.golden_cycles * 10, RegKind.GPR, 0, 0)
            ctx = ExecutionContext(
                injector=FaultInjector(never, space=space),
                watchdog_cycles=tape.golden_cycles * 6,
            )
            fan.resume_member(ctx)
            alloc, _ = space.resolve(address)

        assert serialize_result(result) == serialize_result(expected)
        assert result.record.binding_name == name
        assert result.record.effect is FlipEffect.APPLIED
        assert CrashKind.ABORT not in (result.crash_kind, expected.crash_kind)
        if restored:
            # The flipped member cloned its read pointer's own dead array.
            assert member_clones == [write.aid]
            assert prediction.reason == "dead_target" and expected.outcome is Outcome.MASKED
            assert prediction.record == expected.record
        else:
            assert prediction is None
        aid = space.holder(address)
        assert aid in pristine
        assert alloc.array.tobytes() == pristine[aid]
        assert not np.shares_memory(alloc.array, tape.allocs[aid].frozen)
        if not restored:
            # The flip did write: into the first member's private copy.
            assert private.array.tobytes() != pristine[aid]
        assert [stored(record) for record in tape.allocs] == digests
        for record in tape.allocs:
            assert record.frozen is None or not record.frozen.flags.writeable

    def test_member_allocates_below_dead_bytes(self, vs):
        """A member copies what its flip can write, not the dead prefix:
        one resumed at the last boundary peaks well below the bytes of
        that boundary's dead allocations."""
        stream, config, _, _, _ = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        tape = fast_forward.tape
        index = len(tape.boundaries) - 1
        boundary = tape.boundaries[index]
        dead = sum(
            record.nbytes
            for record in tape.allocs[: boundary.n_allocs]
            if record.aid not in boundary.live_map
        )
        fan = fast_forward.fanout(index)

        def member() -> None:
            never = InjectionPlan(tape.golden_cycles * 10, RegKind.GPR, 0, 0)
            ctx = ExecutionContext(
                injector=FaultInjector(never), watchdog_cycles=tape.golden_cycles * 6
            )
            assert np.array_equal(fan.resume_member(ctx), tape.golden_output)

        member()  # materializes the shared stand-ins outside the measurement
        tracemalloc.start()
        try:
            member()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dead // 4


@functools.lru_cache(maxsize=None)
def _pointer_fires(which: str, algorithm: str, site_filter: str | None) -> tuple:
    """``(target cycle, register, checkpoint)`` of every fire that flips a live pointer.

    Each target is a firing checkpoint's cycle, so the plan fires there
    (the first checkpoint with that cycle, as the injector does).
    """
    _, fast_forward = _tiny(which, algorithm)
    log = fast_forward.tape.fire_log
    fires = []
    for index, cycle in zip(*log.firing_checkpoints(site_filter)):
        if log.fire_checkpoint(cycle, site_filter) != index:
            continue
        for register in range(NUM_REGISTERS):
            write = log.slot_at(RegKind.GPR, register, index)
            if write is not None and write.binding is AddressBinding and write.live_at(
                cycle, RegKind.GPR, LivenessModel()
            ):
                fires.append((cycle, register, index))
    return tuple(fires)


@functools.lru_cache(maxsize=None)
def _tiny_monitor(
    which: str,
    algorithm: str,
    probe: bool,
    site_filter,
    fast: bool,
    liveness: LivenessModel = LivenessModel(),
    keep_sdc_outputs: bool = True,
):
    """A monitor of one tiny workload, with the tape's handle when ``fast``."""
    stream = input_stream(which, TINY)
    config = config_for(algorithm)
    golden = golden_run(stream, config)
    return FaultMonitor(
        vs_workload(stream, config),
        golden.output,
        golden.total_cycles,
        liveness=liveness,
        site_filter=site_filter,
        keep_sdc_outputs=keep_sdc_outputs,
        probe=probe,
        fast_forward=_tiny(which, algorithm)[1] if fast else None,
    )


def _dense_span(fast_forward) -> int:
    """A heap span four times the workload's pages, where flips land in allocations."""
    pages = sum(-(-record.nbytes // PAGE_SIZE) for record in fast_forward.tape.allocs)
    return 4 * pages * PAGE_SIZE


def _landing(fast_forward, plan: InjectionPlan, checkpoint: int) -> str:
    """Where ``plan``'s flip of the pointer live at ``checkpoint`` lands.

    ``unmapped``, ``crosses-end`` (of the allocation it lands in), or
    mapped in the pointer's own allocation (``mapped``) or in another
    one (``elsewhere``).
    """
    log = fast_forward.tape.fire_log
    write = log.slot_at(plan.kind, plan.register, checkpoint)
    aid, offset, window = write.aid, write.byte_offset, write.window
    sizes = [record.nbytes for record in fast_forward.tape.allocs[: log.n_allocs[checkpoint]]]
    space = AddressSpace.layout(plan.target_cycle, np.array(sizes, dtype=np.int64))
    address = flip_pointer(space.base(aid) + offset, plan.bit)
    fault = space.fault(address, window)
    if fault is not None:
        return "crosses-end" if "crosses allocation end" in str(fault) else "unmapped"
    return "mapped" if int(space._order[space._find(address)]) == aid else "elsewhere"


class TestPredictedSegfaults:
    """Pointer flips the fire log decides as segfaults, against the oracle.

    Plans flip a bit of a live pointer at its fire, on the tiny
    input1/VS and input2/VS_RFD tapes, probes on and off, with and
    without a site filter, in the sparse heap and in one shrunk to four
    times the workload's pages (where flips land in other allocations,
    so the placement itself decides).  The unrestored oracle runs with
    ``AddressBinding.flip`` spied on.  Sound: every decided run's
    record equals the oracle's.  Complete: no run left to execute
    segfaults inside ``flip``, which is always at its fire checkpoint.
    Examples pin an unmapped landing, a window crossing the end of an
    allocation, and mapped landings in the pointer's own allocation
    and in another one, each checked by the oracle's own fault.
    """

    def _pinned(self, which, algorithm, site_filter, landing):
        """The first fire and bit whose flip lands as ``landing``."""
        _, fast_forward = _tiny(which, algorithm)
        for cycle, register, checkpoint in _pointer_fires(which, algorithm, site_filter):
            for bit in range(64):
                plan = InjectionPlan(cycle, RegKind.GPR, register, bit)
                if _landing(fast_forward, plan, checkpoint) == landing:
                    return plan, checkpoint
        raise AssertionError(f"no {landing} landing")

    # Each example runs one full oracle run; the budget is a quarter of
    # the active profile's, so ``--hypothesis-profile ci-deep`` searches
    # 250 cases.
    @given(
        workload=st.sampled_from([("input1", "VS"), ("input2", "VS_RFD")]),
        probe=st.booleans(),
        site_filter=st.sampled_from([None, "imaging.warp"]),
        dense=st.booleans(),
        fire=st.integers(0, 2**16),
        bit=st.integers(0, 63),
        pin=st.none(),
    )
    @example(("input1", "VS"), False, None, False, 0, 0, "unmapped")
    @example(("input2", "VS_RFD"), True, None, False, 0, 0, "crosses-end")
    @example(("input1", "VS"), True, "imaging.warp", False, 0, 0, "mapped")
    @example(("input1", "VS"), False, None, True, 0, 0, "elsewhere")
    @settings(
        deadline=None,
        max_examples=settings.default.max_examples // 4,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_decided_segfaults_match_oracle(
        self, workload, probe, site_filter, dense, fire, bit, pin
    ):
        which, algorithm = workload
        _, fast_forward = _tiny(which, algorithm)
        faults: list[SegmentationFault] = []
        flip = AddressBinding.flip

        def spy(binding, bit, rng, space):
            try:
                return flip(binding, bit, rng, space)
            except SegmentationFault as fault:
                faults.append(fault)
                raise

        with contextlib.ExitStack() as patches:
            if dense:
                span = _dense_span(fast_forward)
                patches.enter_context(mock.patch.object(addrspace, "HEAP_SPAN", span))
                # A page-or-more jump that stays near the heap.
                bit = 12 + bit % (span.bit_length() - 11)
            if pin is None:
                fires = _pointer_fires(which, algorithm, site_filter)
                cycle, register, checkpoint = fires[fire % len(fires)]
                plan = InjectionPlan(cycle, RegKind.GPR, register, bit)
            else:
                plan, checkpoint = self._pinned(which, algorithm, site_filter, pin)
            landing = _landing(fast_forward, plan, checkpoint)
            event(f"{landing}, {'dense' if dense else 'sparse'} heap")
            prediction = fast_forward.predict(plan, LivenessModel(), site_filter)
            with mock.patch.object(AddressBinding, "flip", spy):
                expected = _tiny_monitor(which, algorithm, probe, site_filter, False).run_injected(
                    plan, np.random.default_rng(plan.target_cycle)
                )
            result = _tiny_monitor(which, algorithm, probe, site_filter, True).run_injected(
                plan, np.random.default_rng(plan.target_cycle)
            )
        assert serialize_result(result) == serialize_result(expected)
        segfault = prediction is not None and prediction.reason == "segfault"
        assert segfault == bool(faults), (plan, landing, faults)
        assert len(faults) <= 1
        if segfault:
            assert prediction.outcome is Outcome.CRASH
            assert result.crash_kind is CrashKind.SEGV
            assert result.record.effect is FlipEffect.APPLIED
            assert result.cycles == prediction.cycles == result.record.fired_cycle
        if faults:
            crosses = "crosses allocation end" in str(faults[0])
            assert landing == ("crosses-end" if crosses else "unmapped")
        else:
            assert landing in ("mapped", "elsewhere")

    def test_low_bit_landings_place_no_heap(self):
        """A flip of bit 0-11 of a pointer inside its own page run stays
        in that run: bases are page-aligned and page runs never overlap.
        For every pointer write of the quick input1/VS tape, every such
        bit and three seeds, the landing decided without placing equals
        the one the placed heap of the write's checkpoint gives, and
        ``AddressSpace.layout`` is never called."""
        stream = input_stream("input1", QUICK)
        fast_forward = golden_with_tape(stream, config_for("VS")).fast_forward
        log = fast_forward.tape.fire_log
        sizes = np.array([record.nbytes for record in fast_forward.tape.allocs], dtype=np.int64)
        layout = AddressSpace.layout
        spaces: dict[tuple[int, int], AddressSpace] = {}
        landings = collections.Counter()
        with mock.patch.object(AddressSpace, "layout", wraps=layout) as placed:
            for key, writes in log.writes.items():
                for write, checkpoint in zip(writes, log.write_checkpoints[key]):
                    if write.binding is not AddressBinding:
                        continue
                    aid, offset, window = write.aid, write.byte_offset, write.window
                    n_allocs = log.n_allocs[checkpoint]
                    for seed in (0, 1, 2):
                        space = spaces.get((seed, n_allocs))
                        if space is None:
                            space = spaces[(seed, n_allocs)] = layout(seed, sizes[:n_allocs])
                        for bit in range(12):
                            address = flip_pointer(space.base(aid) + offset, bit)
                            fault = space.fault(address, window)
                            expected = None if fault is not None else space.holder(address)
                            plan = InjectionPlan(seed, RegKind.GPR, 0, bit)
                            assert fast_forward._landing(plan, write, n_allocs) == expected
                            landings["fault" if expected is None else "own"] += 1
                            assert expected in (None, aid)
        assert placed.call_count == 0
        assert landings["fault"] and landings["own"], landings


def _restored_write(fast_forward, plan: InjectionPlan, site_filter):
    """The write a member restores into ``plan``'s slot, if its fire finds that value.

    The member restores the slot's last write before its restore point;
    the fire finds it when the slot is not written again before the fire.
    """
    log = fast_forward.tape.fire_log
    point = fast_forward.tape.boundaries[fast_forward.resume_index(plan.target_cycle, site_filter)]
    checkpoint = log.fire_checkpoint(plan.target_cycle, site_filter)
    writes = log.write_checkpoints.get((plan.kind, plan.register), ())
    written = [c for c in writes if c <= checkpoint]
    if not written or written[-1] >= point.checkpoints:
        return None
    restored = log.slot_at(plan.kind, plan.register, point.checkpoints - 1)
    assert restored is log.slot_at(plan.kind, plan.register, checkpoint), plan
    return restored


def _class_name(write) -> str | None:
    """The bound class's name of ``write``, or None for no write."""
    return None if write is None else write.binding.__name__


#: Liveness by register kind.  The default FPR lease ends before the
#: next restore point on the tiny tapes, so no FPR value survives one.
DEAD_TARGET_LIVENESS = {
    RegKind.GPR: LivenessModel(),
    RegKind.FPR: LivenessModel(fpr_data_ttl=400_000),
}


@functools.lru_cache(maxsize=None)
def _restored_fires(which: str, algorithm: str, kind: RegKind, site_filter: str | None) -> tuple:
    """``(target cycle, register)`` of every fire into a live value its member restores.

    Each firing checkpoint is hit by its interval's first and last
    target, which may resume different restore points.
    """
    _, fast_forward = _tiny(which, algorithm)
    log = fast_forward.tape.fire_log
    fires = []
    previous = -1
    for index, cycle in zip(*log.firing_checkpoints(site_filter)):
        for target in sorted({previous + 1, cycle}):
            if log.fire_checkpoint(target, site_filter) != index:
                continue
            for register in range(NUM_REGISTERS):
                write = log.slot_at(kind, register, index)
                plan = InjectionPlan(target, kind, register, 0)
                if (
                    write is not None
                    and write.live_at(cycle, kind, DEAD_TARGET_LIVENESS[kind])
                    and _restored_write(fast_forward, plan, site_filter) is not None
                ):
                    fires.append((target, register))
        previous = cycle
    return tuple(fires)


class TestDeadTargetFlips:
    """Flips of a value already dead at the member's restore point, against the oracle.

    A live value whose slot was written before the restore point is
    restored from that write's fire-log record: a kernel-local cell or value,
    an array that is not live program state, or a pointer.  When the
    flip writes only dead state, ``FastForward.predict`` decides the run
    MASKED without executing (``reason="dead_target"``).  Plans fire into
    such values on the tiny input1/VS and input2/VS_RFD tapes, GPR and
    FPR, probes on and off, with and without a site filter, in the
    sparse heap and in one shrunk to four times the workload's pages.
    Every run must equal the unrestored oracle's, and every restored
    cell or value must be decided.  Examples pin each qualifying
    restored binding (a cell, a dead FPR array, a read pointer into a dead
    array, a write pointer landing in a dead stand-in) and runs that
    must execute (a frame index moved inside the frame table, a slot
    written after the restore point, a live array, a write landing in
    an allocation made after the point).
    """

    #: pin -> (register kind, binding name, the restored binding's class
    #: or None if written after the point, whether the run is decided).
    PINS = {
        "ransac_budget": (RegKind.GPR, "ransac_budget", "IntCellBinding", True),
        "coef_x": (RegKind.FPR, "coef_x", "ArrayBinding", True),
        "descA_ptr": (RegKind.GPR, "descA_ptr", "AddressBinding", True),
        "write-stand-in": (RegKind.GPR, "canvas_ptr", "AddressBinding", True),
        # A frame index moved inside the frame table.
        "frame_idx": (RegKind.GPR, "frame_idx", "IntCellBinding", False),
        "written-after-point": (RegKind.GPR, "row_end", None, False),
        # The current frame's descriptors, live at its in-frame points.
        "live-array": (RegKind.GPR, "desc_bytes", "ArrayBinding", False),
        # A write landing in an allocation made after the point.
        "write-past-point": (RegKind.GPR, "canvas_ptr", "AddressBinding", False),
    }

    def _pinned(self, which, algorithm, site_filter, pin, bits):
        """The first fire and bit into ``pin``'s live binding, restored and decided as pinned."""
        kind, name, tag, decided = self.PINS[pin]
        liveness = DEAD_TARGET_LIVENESS[kind]
        _, fast_forward = _tiny(which, algorithm)
        log = fast_forward.tape.fire_log
        targets = sorted(set(log.cycles))
        if pin == "written-after-point":
            # Targets inside RANSAC resume the frame's MATCH point; the
            # warp filter fires them in the warp that follows it.
            targets = [c for s, c in zip(log.sites, log.cycles) if s.startswith("vision.ransac")]
        for target in targets:
            checkpoint = log.fire_checkpoint(target, site_filter)
            for register in range(NUM_REGISTERS):
                write = log.slot_at(kind, register, checkpoint)
                if write is None or write.name != name:
                    continue
                if not write.live_at(log.cycles[checkpoint], kind, liveness):
                    continue
                restored = _restored_write(
                    fast_forward, InjectionPlan(target, kind, register, 0), site_filter
                )
                if _class_name(restored) != tag:
                    continue
                for bit in bits:
                    plan = InjectionPlan(target, kind, register, bit)
                    prediction = fast_forward.predict(plan, liveness, site_filter)
                    if decided:
                        if prediction is not None and prediction.reason == "dead_target":
                            return plan
                    elif prediction is None and (
                        pin != "write-past-point"
                        or fast_forward._landing(plan, write, log.n_allocs[checkpoint])
                        >= fast_forward.tape.boundaries[
                            fast_forward.resume_index(target, site_filter)
                        ].n_allocs
                    ):
                        return plan
        raise AssertionError(f"no {pin} fire")

    def test_quick_tape_executes_fewer_plans(self):
        """The count gate: of 1,000 GPR (seed 0) and 1,000 FPR (seed 1)
        uniform plans on the quick input1/VS tape, 465 executed before
        flips into dead state or into the frame loop's own cells were
        decided; at most 200 do now, and the dead-fire and segfault
        decisions are unchanged."""
        stream = input_stream("input1", QUICK)
        fast_forward = golden_with_tape(stream, config_for("VS")).fast_forward
        reasons = collections.Counter()
        for kind, seed in ((RegKind.GPR, 0), (RegKind.FPR, 1)):
            config = CampaignConfig(n_injections=1000, kind=kind, seed=seed)
            for plan in campaign_module.draw_plans(config, fast_forward.tape.golden_cycles):
                prediction = fast_forward.predict(plan, LivenessModel(), None)
                reasons[None if prediction is None else prediction.reason] += 1
        assert reasons["dead_fire"] == 1212 and reasons["segfault"] == 323, reasons
        loop = {reason: reasons[reason] for reason in ("loop_exit", "loop_overrun", "loop_reset")}
        assert loop == {"loop_exit": 18, "loop_overrun": 37, "loop_reset": 7}, reasons
        assert reasons[None] + reasons["dead_target"] + sum(loop.values()) == 465, reasons
        assert reasons[None] <= 200, reasons

    # Each example runs one full oracle run; the budget is a tenth of
    # the active profile's, so ``--hypothesis-profile ci-deep`` searches
    # 100 cases.
    @given(
        workload=st.sampled_from([("input1", "VS"), ("input2", "VS_RFD")]),
        kind=st.sampled_from([RegKind.GPR, RegKind.FPR]),
        probe=st.booleans(),
        site_filter=st.sampled_from([None, "imaging.warp"]),
        dense=st.booleans(),
        fire=st.integers(0, 2**16),
        bit=st.integers(0, 63),
        pin=st.none(),
    )
    @example(("input1", "VS"), RegKind.GPR, False, None, False, 0, 0, "ransac_budget")
    @example(("input1", "VS"), RegKind.FPR, True, None, False, 0, 0, "coef_x")
    @example(("input2", "VS_RFD"), RegKind.GPR, True, None, False, 0, 0, "descA_ptr")
    @example(("input1", "VS"), RegKind.GPR, False, None, True, 0, 0, "write-stand-in")
    @example(("input1", "VS"), RegKind.GPR, False, None, False, 0, 0, "frame_idx")
    @example(
        ("input1", "VS"), RegKind.GPR, False, "imaging.warp", False, 0, 0, "written-after-point"
    )
    @example(("input1", "VS"), RegKind.GPR, True, None, False, 0, 0, "live-array")
    @example(("input1", "VS"), RegKind.GPR, False, None, True, 0, 0, "write-past-point")
    @settings(
        deadline=None,
        max_examples=settings.default.max_examples // 10,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_decided_dead_targets_match_oracle(
        self, workload, kind, probe, site_filter, dense, fire, bit, pin
    ):
        which, algorithm = workload
        _, fast_forward = _tiny(which, algorithm)
        with contextlib.ExitStack() as patches:
            bits = range(64)
            if dense:
                span = _dense_span(fast_forward)
                patches.enter_context(mock.patch.object(addrspace, "HEAP_SPAN", span))
                # A page-or-more jump that stays near the heap.
                bits = range(12, span.bit_length() + 1)
                bit = bits[bit % len(bits)]
            if pin is None:
                fires = _restored_fires(which, algorithm, kind, site_filter)
                target, register = fires[fire % len(fires)]
                plan = InjectionPlan(target, kind, register, bit)
            else:
                plan = self._pinned(which, algorithm, site_filter, pin, bits)
            liveness = DEAD_TARGET_LIVENESS[kind]
            prediction = fast_forward.predict(plan, liveness, site_filter)
            restored = _restored_write(fast_forward, plan, site_filter)
            decided = prediction is not None and prediction.reason == "dead_target"
            event(f"{'decided' if decided else 'not decided'}, {_class_name(restored)}")
            results = [
                _tiny_monitor(
                    which, algorithm, probe, site_filter, fast, liveness
                ).run_injected(plan, np.random.default_rng(plan.target_cycle))
                for fast in (True, False)
            ]
        assert serialize_result(results[0]) == serialize_result(results[1]), plan
        if decided:
            assert restored is not None, plan
            assert results[1].outcome is Outcome.MASKED
            assert results[1].cycles == fast_forward.tape.golden_cycles
            assert prediction.record == results[1].record
        elif (
            restored is not None
            and restored.binding in (IntCellBinding, IntValueBinding, FloatValueBinding)
            and restored.cell is None
        ):
            # A restored kernel-local cell or value always writes dead state.
            pytest.fail(f"restored {restored.name} not decided: {plan}")
        if pin is not None:
            _, name, tag, expected = self.PINS[pin]
            assert results[1].record.binding_name == name
            assert _class_name(restored) == tag
            assert decided == expected


#: The frame loop's register bindings -> the ``PipelineState`` cell each binds.
LOOP_CELLS = {"frame_total": "total", "frame_idx": "index", "fail_count": "failures"}


@functools.lru_cache(maxsize=None)
def _loop_fires(which: str, algorithm: str, site_filter: str | None) -> tuple:
    """``(target cycle, register, cell, frame)`` of every fire into a live loop cell.

    ``frame`` is the golden frame the fire checkpoint lies in: the
    number of frame tops logged no later than it, less one.
    """
    _, fast_forward = _tiny(which, algorithm)
    tape = fast_forward.tape
    log = tape.fire_log
    tops = [b.checkpoints for b in tape.boundaries if b.phase == FRAME]
    fires = []
    for index, cycle in zip(*log.firing_checkpoints(site_filter)):
        if log.fire_checkpoint(cycle, site_filter) != index:
            continue
        frame = sum(top <= index for top in tops) - 1
        for register in range(NUM_REGISTERS):
            write = log.slot_at(RegKind.GPR, register, index)
            if write is None or write.name not in LOOP_CELLS:
                continue
            assert write.cell == LOOP_CELLS[write.name]
            if write.live_at(cycle, RegKind.GPR, LivenessModel()):
                fires.append((cycle, register, write.cell, frame))
    return tuple(fires)


def _loop_decision(cell: str, frame: int, bit: int, n_frames: int, status: str) -> str | None:
    """The reason a flip of ``cell`` in ``frame`` is decided for, None if it executes.

    The frame loop reads its bound only in its test, its index only in
    ``index += 1`` and the next frame lookup, and its failure counter
    only when a frame fails to stitch.
    """
    if cell == "total":
        return "loop_overrun" if flip_bit64(n_frames, bit) > n_frames else "loop_exit"
    if cell == "index":
        index = flip_bit64(frame, bit) + 1
        if index >= n_frames:
            return "loop_exit"
        return "loop_overrun" if index < -n_frames else None
    return "loop_reset" if status == "stitched" else None


class TestLoopControlFlips:
    """Flips of the frame loop's own cells, decided from the tape, against the oracle.

    A live ``frame_total``, ``frame_idx`` or ``fail_count`` slot binds
    the loop's bound, frame index or failure counter, whenever it was
    written.  ``FastForward.predict`` decides a bound raised past the
    frame count and an index far below zero as frame-table overruns
    (``loop_overrun``), a lowered bound and an index raised past the
    frame count as early loop exits (``loop_exit``, MASKED or SDC, the
    output stacked from a frame top's minis), and a counter flipped in a
    frame that stitches as MASKED (``loop_reset``).  An index moved
    inside the frame table, and a counter flipped in a discarded or
    anchor frame, execute.  Plans fire into these cells on the tiny
    input1/VS and input2/VS_RFD tapes, every bit, probes on and off,
    SDC outputs kept or not, with and without a site filter; every run
    must equal the unrestored oracle's, and be decided exactly as
    :func:`_loop_decision` says.  Examples pin each decided class and
    each class that executes.
    """

    #: pin -> (cell, bits, decision reason, decided outcome, frame status).
    PINS = {
        "total-overrun": ("total", (40,), "loop_overrun", Outcome.CRASH, None),
        "total-exit": ("total", (4,), "loop_exit", Outcome.SDC, None),
        "total-exit-last-frame": ("total", (4, 5), "loop_exit", Outcome.MASKED, None),
        "index-exit-sdc": ("index", range(64), "loop_exit", Outcome.SDC, None),
        "index-exit-masked": ("index", range(64), "loop_exit", Outcome.MASKED, None),
        "index-bit-63": ("index", (63,), "loop_overrun", Outcome.CRASH, None),
        "failures-stitched": ("failures", range(64), "loop_reset", Outcome.MASKED, "stitched"),
        "index-in-range": ("index", range(64), None, None, None),
        "failures-discarded": ("failures", range(64), None, None, "discarded"),
        "failures-anchor": ("failures", range(64), None, None, "anchor"),
    }

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _statuses(which: str, algorithm: str) -> tuple[str, ...]:
        """Each golden frame's outcome status, in frame order."""
        stream = input_stream(which, TINY)
        outcomes = golden_run(stream, config_for(algorithm)).result.outcomes
        assert [outcome.index for outcome in outcomes] == list(range(len(outcomes)))
        return tuple(outcome.status for outcome in outcomes)

    def _pinned(self, which, algorithm, site_filter, pin):
        """The first fire and bit into ``pin``'s cell that is decided as pinned."""
        cell, bits, reason, outcome, status = self.PINS[pin]
        _, fast_forward = _tiny(which, algorithm)
        statuses = self._statuses(which, algorithm)
        for cycle, register, fired_cell, frame in _loop_fires(which, algorithm, site_filter):
            if fired_cell != cell or status not in (None, statuses[frame]):
                continue
            for bit in bits:
                plan = InjectionPlan(cycle, RegKind.GPR, register, bit)
                prediction = fast_forward.predict(plan, LivenessModel(), site_filter)
                if reason is None and prediction is None:
                    return plan
                if (
                    prediction is not None
                    and prediction.reason == reason
                    and prediction.outcome is outcome
                ):
                    return plan
        raise AssertionError(f"no {pin} fire")

    # Each example runs one full oracle run; the budget is a tenth of
    # the active profile's, so ``--hypothesis-profile ci-deep`` searches
    # 100 cases.
    @given(
        workload=st.sampled_from([("input1", "VS"), ("input2", "VS_RFD")]),
        probe=st.booleans(),
        keep=st.booleans(),
        site_filter=st.sampled_from([None, "imaging.warp"]),
        fire=st.integers(0, 2**16),
        bit=st.integers(0, 63),
        pin=st.none(),
    )
    @example(("input1", "VS"), False, True, None, 0, 0, "total-overrun")
    @example(("input2", "VS_RFD"), True, True, None, 0, 0, "total-exit")
    @example(("input1", "VS"), True, False, None, 0, 0, "total-exit-last-frame")
    @example(("input1", "VS"), True, True, None, 0, 0, "index-exit-sdc")
    @example(("input1", "VS"), False, True, None, 0, 0, "index-exit-masked")
    @example(("input2", "VS_RFD"), True, False, None, 0, 0, "index-bit-63")
    @example(("input1", "VS"), True, True, None, 0, 0, "failures-stitched")
    @example(("input1", "VS"), False, True, None, 0, 0, "index-in-range")
    @example(("input1", "VS"), True, True, None, 0, 0, "failures-discarded")
    @example(("input1", "VS"), False, False, None, 0, 0, "failures-anchor")
    @settings(
        deadline=None,
        max_examples=settings.default.max_examples // 10,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_loop_control_flips_match_oracle(
        self, workload, probe, keep, site_filter, fire, bit, pin
    ):
        which, algorithm = workload
        _, fast_forward = _tiny(which, algorithm)
        if pin is None:
            fires = _loop_fires(which, algorithm, site_filter)
            cycle, register, _, _ = fires[fire % len(fires)]
            plan = InjectionPlan(cycle, RegKind.GPR, register, bit)
        else:
            plan = self._pinned(which, algorithm, site_filter, pin)
        _, _, cell, frame = next(
            f for f in _loop_fires(which, algorithm, site_filter) if f[:2] == (plan.target_cycle, plan.register)
        )
        statuses = self._statuses(which, algorithm)
        expected = _loop_decision(cell, frame, plan.bit, len(statuses), statuses[frame])
        prediction = fast_forward.predict(plan, LivenessModel(), site_filter)
        event(f"{cell}: {expected or 'executed'}")
        assert (prediction and prediction.reason) == expected, plan
        results = [
            _tiny_monitor(
                which, algorithm, probe, site_filter, fast, keep_sdc_outputs=keep
            ).run_injected(plan, np.random.default_rng(plan.target_cycle))
            for fast in (True, False)
        ]
        assert serialize_result(results[0]) == serialize_result(results[1]), plan
        oracle = results[1]
        assert oracle.record.effect is FlipEffect.APPLIED
        assert oracle.record.binding_name in LOOP_CELLS
        golden_cycles = fast_forward.tape.golden_cycles
        if expected == "loop_overrun":
            assert (oracle.outcome, oracle.crash_kind) == (Outcome.CRASH, CrashKind.SEGV)
            if cell == "total":
                # The golden frames run; the overrun is at the golden loop exit.
                assert oracle.cycles == fast_forward.tape.exit_cycles
        elif expected == "loop_exit":
            assert oracle.outcome in (Outcome.MASKED, Outcome.SDC)
            assert oracle.cycles <= golden_cycles
            assert (oracle.output is not None) == (keep and oracle.outcome is Outcome.SDC)
        elif expected == "loop_reset":
            assert (oracle.outcome, oracle.cycles) == (Outcome.MASKED, golden_cycles)
        if pin is not None:
            assert (prediction and prediction.outcome) is self.PINS[pin][3]
