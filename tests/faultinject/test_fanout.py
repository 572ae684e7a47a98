"""Boundary fan-out scheduler: grouped dispatch, shared restores, telemetry.

Campaign records are checked against the unrestored oracle by the
differential suite in ``test_fastforward.py``.  This module covers the
scheduler pieces around it: group partitioning edge cases, contiguous
groups for tapeless workloads, worker clamping to the group count, the
journal layout (the decided plans' chunk, then one chunk per executed
group) and resume from the older one-chunk-per-group layout, the
dispatch contract (only executed plans are shipped, run and journaled),
the ORB calls the fan-out saves over full execution, the mappability
checks a restore makes (its own arrays only), the one binding and the
one dead clone a member's restore may make, what a fan-out and a member
hold as the prefix grows, and the fan-out counters and per-boundary
amortization section of ``repro trace summarize``.
"""

from __future__ import annotations

import collections
import itertools
import json
from unittest import mock

import pytest

from repro import telemetry
from repro.analysis.experiments import QUICK, TINY, input_stream, vs_workload
from repro.faultinject import addrspace
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.injector import FaultInjector, InjectionPlan
from repro.faultinject.journal import load_journal
from repro.faultinject.parallel import (
    VSWorkloadSpec,
    contiguous_groups,
    group_plan_indices,
    plan_groups,
    resolve_workers,
)
from repro.faultinject.fastforward import BoundaryFanOut, FastForward, capture_tape
from repro.faultinject.registers import NUM_REGISTERS, LivenessModel, RegKind
from repro.observe import events
from repro.runtime.context import ExecutionContext
from repro.summarize import pipeline, stitcher
from repro.summarize.approximations import config_for
from repro.summarize.golden import clear_golden_cache, golden_run, golden_with_tape
from repro.summarize.pipeline import FRAME
from repro.telemetry.export import render_summary, summarize_trace, write_trace
from repro.video.synthetic import make_input


@pytest.fixture(scope="module")
def vs():
    """Shared tiny VS workload: (stream, config, golden, workload, spec)."""
    stream = input_stream("input1", TINY)
    config = config_for("VS")
    golden = golden_run(stream, config)
    spec = VSWorkloadSpec.for_stream(stream, config)
    assert spec is not None
    return stream, config, golden, vs_workload(stream, config), spec


@pytest.fixture(scope="module")
def long_tapes():
    """Fast-forward handles over 48 and 200 frames of input1/VS."""
    return [
        capture_tape(
            make_input("input1", n_frames=n_frames, frame_size=QUICK.frame_size),
            config_for("VS"),
        ).fast_forward
        for n_frames in (QUICK.n_frames, 200)
    ]


def _config(**overrides) -> CampaignConfig:
    defaults = dict(n_injections=16, kind=RegKind.GPR, seed=8)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _plan(cycle: int) -> InjectionPlan:
    return InjectionPlan(target_cycle=cycle, kind=RegKind.GPR, register=0, bit=0)


class TestGroupPartition:
    """group_plan_indices edge cases against a stub boundary lookup."""

    @staticmethod
    def _lookup(cycle: int) -> int:
        # Boundaries at cycles 0/100/200/300 (indices 0/1/2/3); targets
        # at or below 100 resume boundary 0.
        if cycle <= 100:
            return 0
        return min(cycle // 100, 3)

    def test_zero_plans(self):
        assert group_plan_indices(self._lookup, []) == []

    def test_all_plans_share_one_boundary(self):
        plans = [_plan(150), _plan(199), _plan(101)]
        assert group_plan_indices(self._lookup, plans) == [[0, 1, 2]]

    def test_pre_first_boundary_plans_join_boundary_0(self):
        plans = [_plan(5), _plan(100), _plan(1)]
        assert group_plan_indices(self._lookup, plans) == [[0, 1, 2]]

    def test_groups_ordered_by_first_member_and_cover_all_plans(self):
        plans = [_plan(250), _plan(50), _plan(110), _plan(299), _plan(320)]
        groups = group_plan_indices(self._lookup, plans)
        assert groups == [[0, 3], [1], [2], [4]]
        covered = sorted(index for group in groups for index in group)
        assert covered == list(range(len(plans)))

    def test_real_tape_lookup_follows_fire_checkpoint(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        assert fast_forward is not None
        tape = fast_forward.tape
        log = tape.fire_log
        top = next(b for b in tape.boundaries if b.phase == FRAME and b.frame_index == 1)
        # Frame 0's last checkpoint, some cycles before frame 1's top.
        last = log.cycles[top.checkpoints - 1]
        assert last < top.cycles
        # Up to frame 0's last checkpoint: frame 0's group.  Past it,
        # the first checkpoint is frame 1's, so even a target before
        # frame 1's top resumes that top.
        plans = [_plan(1), _plan(last), _plan(last + 1), _plan(top.cycles + 1)]
        groups = group_plan_indices(fast_forward.group_for, plans)
        assert groups == [[0, 1], [2, 3]]
        assert tape.boundaries[fast_forward.resume_index(last + 1, None)] is top
        assert tape.boundaries[fast_forward.boundary_index_for(last + 1)].frame_index == 0
        # The last target in frame 0's group resumes its last in-frame point.
        point = tape.boundaries[fast_forward.resume_index(last, None)]
        assert point.frame_index == 0 and point.phase != FRAME
        # A target past the last checkpoint never fires: it resumes the
        # last point strictly before it.
        never = log.cycles[-1] + 1
        assert fast_forward.resume_index(never, None) == fast_forward.boundary_index_for(never)


class TestChunkBoundEdges:
    def test_zero_plans_is_empty(self):
        assert contiguous_groups(0, 4) == []

    def test_negative_plans_is_empty(self):
        assert contiguous_groups(-3, 4) == []

    def test_fewer_plans_than_workers_yields_nonempty_chunks(self):
        assert contiguous_groups(3, 8) == [[0], [1], [2]]

    def test_single_plan_single_chunk(self):
        assert contiguous_groups(1, 8) == [[0]]

    def test_tapeless_campaign_gets_contiguous_groups(self):
        # No spec, no tape: index ranges sized by the worker count.
        plans = [_plan(cycle) for cycle in range(10)]
        groups, workers = plan_groups(None, _config(workers=2), plans)
        assert groups == contiguous_groups(10, 2)
        assert workers == 2


class TestWorkerClamp:
    def test_workers_clamped_to_group_count(self):
        # The scheduler clamps the pool to the group count: more
        # workers than groups only buys idle pool startup.
        assert resolve_workers(8, max_useful=min(12, 3)) == 3

    def test_explicit_request_still_validated_before_clamp(self):
        with pytest.raises(ValueError):
            resolve_workers(0, max_useful=3)

    def test_campaign_clamps_pool_to_groups(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        from repro.faultinject.campaign import draw_plans

        campaign_config = _config(n_injections=12, seed=10, workers=64)
        plans = draw_plans(campaign_config, golden.total_cycles)
        groups, workers = plan_groups(spec, campaign_config, plans)
        assert groups == group_plan_indices(fast_forward.group_for, plans)
        assert workers == len(groups) <= len(plans)


class TestJournalInterplay:
    def test_journal_checkpoints_at_group_granularity(self, vs, tmp_path):
        """The journal is its header, one round-0 chunk holding exactly
        the plans the tape decides, then one chunk per frame group of
        the plans that execute, in order of their first member."""
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        from repro.faultinject.campaign import draw_plans

        campaign_config = _config(workers=3)
        plans = draw_plans(campaign_config, golden.total_cycles)
        liveness = campaign_config.liveness
        decided = [
            index
            for index, plan in enumerate(plans)
            if fast_forward.predict(plan, liveness, None) is not None
        ]
        rest = [index for index in range(len(plans)) if index not in decided]
        assert decided and rest
        groups = [
            [rest[position] for position in group]
            for group in group_plan_indices(fast_forward.group_for, [plans[i] for i in rest])
        ]

        journal = tmp_path / "groups.jsonl"
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            campaign_config,
            spec=spec,
            journal_path=journal,
        )
        records = [json.loads(line) for line in journal.read_text().splitlines()[1:]]
        assert [record["indices"] for record in records] == [decided] + groups
        assert {record["round"] for record in records} == {0}
        state = load_journal(journal)
        assert state.chunks == 1 + len(groups)
        assert sorted(state.results) == list(range(len(plans)))

    def test_old_layout_journal_resumes_to_uninterrupted_records(self, vs, tmp_path):
        """A journal written one chunk per frame group, decided plans
        included, and interrupted midway resumes to the records of the
        uninterrupted campaign: a resume reads results by plan index."""
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        from repro.faultinject.campaign import draw_plans
        from repro.faultinject.journal import CampaignJournal, serialize_result

        campaign_config = _config(workers=1)
        reference = run_campaign(
            workload, golden.output, golden.total_cycles, campaign_config, spec=spec
        )
        plans = draw_plans(campaign_config, golden.total_cycles)
        groups = group_plan_indices(fast_forward.group_for, plans)
        journal = tmp_path / "old-layout.jsonl"
        with CampaignJournal.create(journal, campaign_config) as writer:
            for group in groups[: len(groups) // 2]:
                writer.append_chunk(0, group, [reference.results[i] for i in group])
        journaled = {index for group in groups[: len(groups) // 2] for index in group}
        decided = {
            index
            for index, plan in enumerate(plans)
            if fast_forward.predict(plan, campaign_config.liveness, None) is not None
        }
        assert journaled & decided and decided - journaled

        resumed = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            campaign_config,
            spec=spec,
            journal_path=journal,
            resume=True,
        )
        assert [serialize_result(r) for r in resumed.results] == [
            serialize_result(r) for r in reference.results
        ]
        assert resumed.running == reference.running
        state = load_journal(journal)
        assert {
            index: serialize_result(result) for index, result in state.results.items()
        } == {index: serialize_result(result) for index, result in enumerate(reference.results)}


class TestDispatchContract:
    """Only the plans that execute are dispatched, run and journaled.

    The 16-plan seed-8 TINY campaign decides 12 plans from the tape and
    executes 4, in 4 frame groups.  Counts are written to a file, so the
    forked pool workers report theirs too.
    """

    @pytest.mark.parametrize("workers", [1, 3])
    def test_decided_plans_are_never_dispatched(self, vs, tmp_path, monkeypatch, workers):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        from repro.faultinject import monitor, parallel
        from repro.faultinject.campaign import draw_plans

        campaign_config = _config(workers=workers)
        plans = draw_plans(campaign_config, golden.total_cycles)
        executed = [
            index
            for index, plan in enumerate(plans)
            if fast_forward.predict(plan, campaign_config.liveness, None) is None
        ]
        groups = group_plan_indices(fast_forward.group_for, [plans[i] for i in executed])
        assert 0 < len(executed) < len(plans)

        log = tmp_path / "dispatched.log"

        def note(kind: str, indices) -> None:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps([kind, sorted(indices)]) + "\n")

        class CountingInjector(FaultInjector):
            def __init__(self, plan, *args, **kwargs):
                note("injector", [plans.index(plan)])
                super().__init__(plan, *args, **kwargs)

        run_chunk = parallel.run_chunk_on_monitor

        def spy_chunk(monitor_, config_, chunk):
            note("chunk", [index for index, _ in chunk])
            return run_chunk(monitor_, config_, chunk)

        class SpyPool(parallel.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                note("submit", [index for index, _ in args[-1]])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(monitor, "FaultInjector", CountingInjector)
        monkeypatch.setattr(parallel, "run_chunk_on_monitor", spy_chunk)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", SpyPool)
        journal = tmp_path / "contract.jsonl"
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            campaign_config,
            spec=spec,
            journal_path=journal,
        )
        seen = collections.defaultdict(list)
        for line in log.read_text().splitlines():
            kind, indices = json.loads(line)
            seen[kind].extend(indices)
        assert sorted(seen["injector"]) == executed
        assert sorted(seen["chunk"]) == executed
        assert sorted(seen["submit"]) == (executed if workers > 1 else [])
        assert len(journal.read_text().splitlines()) == 1 + 1 + len(groups)


class TestFanoutWork:
    def test_fanout_runs_a_quarter_of_full_executions_orb_calls(self, vs, monkeypatch):
        """The fan-out's reason to exist, counted instead of timed.

        Full execution re-runs ORB on every frame of every injected run
        and composites every frame (331 ``orb_features`` and 243
        ``warp_into`` calls for these 16 plans); the fan-out resumes each
        run from a restore point and splices golden tails, so it must
        make at most a quarter of the ORB calls.  Its ``warp_into``
        count fell from 27 to 19 when the watch began splicing at
        in-frame restore points and past differing open-mini pixels,
        and is pinned below 27.
        """
        stream, config, golden, workload, spec = vs
        # Capture the tape before counting, so neither side pays for it.
        golden_with_tape(stream, config)
        calls: list[str] = []

        def counting(module, name):
            kernel = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(pipeline, "orb_features")
        counting(stitcher, "warp_into")
        counts = {}
        for run, campaign_spec in (("fanout", spec), ("full", None)):
            calls.clear()
            run_campaign(
                workload, golden.output, golden.total_cycles, _config(), spec=campaign_spec
            )
            counts[run] = collections.Counter(calls)
        assert counts["fanout"]["orb_features"] > 0
        assert counts["full"]["orb_features"] >= 4 * counts["fanout"]["orb_features"], counts
        assert 0 < counts["fanout"]["warp_into"] < 27, counts

    def test_member_checks_only_its_own_arrays(self):
        """A member's restore checks the arrays it owns, not the prefix.

        A dead allocation is placed by its size alone and thawed only
        where a pointer lands, so a member's ``_check_mappable`` calls
        are its live arrays plus, when its planned slot's restored
        binding holds a dead array, that array's thawed clone, at every
        restore point and for every register.
        Those are loop state, not prefix: apart from two buffers per
        mini-panorama, which the panorama grows, the most any member
        checks is the same on 24 and 48 frames of input1/VS (17), while
        the allocations it resumes past double (866 and 1,708).
        """
        most, prefix = [], []
        for scale in (TINY, QUICK):
            stream = input_stream("input1", scale)
            fast_forward = golden_with_tape(stream, config_for("VS")).fast_forward
            log = fast_forward.tape.fire_log
            own = []
            for index in range(len(fast_forward.tape.boundaries)):
                fan = fast_forward.fanout(index)
                point = fan.snapshot
                state, live_bases = fast_forward._restore_app(point)
                checked = 0
                for kind, register in itertools.product(RegKind, range(NUM_REGISTERS)):
                    write = log.slot_at(kind, register, point.checkpoints - 1)
                    dead = write is not None and write.aid is not None
                    dead = dead and write.aid not in point.live_map
                    plan = InjectionPlan(2**62, kind, register, 0)
                    with mock.patch.object(
                        addrspace, "_check_mappable", wraps=addrspace._check_mappable
                    ) as checks:
                        fan._restore_machine(FaultInjector(plan), live_bases, state)
                    assert checks.call_count == len(point.live_map) + dead
                    checked = max(checked, checks.call_count)
                own.append(checked - 2 * len(state.minis))
            most.append(max(own))
            prefix.append(max(b.n_allocs for b in fast_forward.tape.boundaries))
        assert most[1] <= most[0], most
        assert prefix[1] >= 1.5 * prefix[0], prefix

    def test_member_copies_do_not_grow_with_the_prefix(self, long_tapes):
        """Restore-copy gate: a member's address space reads the prefix's
        sizes as a slice of the tape's, and owns only its live arrays and
        at most one dead clone, each by position and by id.  Apart from
        two buffers per mini-panorama, which the panorama grows, the most
        a member owns is the same on 48 and 200 frames of input1/VS, for
        GPR and for FPR plans, while the allocations it resumes past grow
        fourfold.  Copying the prefix's arrays or their id map made it
        grow with them."""
        most, prefix = [], []
        for fast_forward in long_tapes:
            log = fast_forward.tape.fire_log
            own = dict.fromkeys(RegKind, 0)
            for index, point in enumerate(fast_forward.tape.boundaries):
                fan = BoundaryFanOut(fast_forward, index)
                state, live_bases = fast_forward._restore_app(point)
                for kind in RegKind:
                    # A register whose restored write binds a dead array:
                    # its member clones that array.
                    writes = (
                        (register, log.slot_at(kind, register, point.checkpoints - 1))
                        for register in range(NUM_REGISTERS)
                    )
                    register = next(
                        (
                            register
                            for register, write in writes
                            if write is not None
                            and write.aid is not None
                            and write.aid not in point.live_map
                        ),
                        0,
                    )
                    injector = FaultInjector(InjectionPlan(2**62, kind, register, 0))
                    fan._restore_machine(injector, live_bases, state)
                    space = injector.space
                    assert space._prefix.base is fast_forward._nbytes
                    assert len(space._prefix) == point.n_allocs
                    owned = len(space._arrays) + len(space._position)
                    own[kind] = max(own[kind], owned - 4 * len(state.minis))
            most.append(own)
            prefix.append(max(b.n_allocs for b in fast_forward.tape.boundaries))
        assert most[0] == most[1], most
        assert prefix[1] >= 3.5 * prefix[0], prefix

    def test_fanout_holds_nothing_the_size_of_the_prefix(self, long_tapes):
        """Fan-out gate: once a member has resumed at a restore point, its
        fan-out holds no container whose length grows with the prefix, on
        48 and on 200 frames of input1/VS: only the handle, the point's
        snapshot (both the tape's) and scalars.  A stand-in list and an
        id map of the dead allocations made both grow with ``n_allocs``."""
        held = []
        for fast_forward in long_tapes:
            tape = fast_forward.tape
            index = len(tape.boundaries) - 1
            fan = BoundaryFanOut(fast_forward, index)
            never = InjectionPlan(tape.golden_cycles * 10, RegKind.GPR, 0, 0)
            ctx = ExecutionContext(
                injector=FaultInjector(never), watchdog_cycles=tape.golden_cycles * 6
            )
            fan.resume_member(ctx)
            assert fan._resumed
            sized = {
                name: len(value)
                for name, value in vars(fan).items()
                if name not in ("fast_forward", "snapshot") and hasattr(value, "__len__")
            }
            held.append((sized, tape.boundaries[index].n_allocs))
        (small, n_small), (large, n_large) = held
        assert small == large, held
        assert n_large >= 3.5 * n_small, held

    # The default FPR lease ends before the next restore point, so the
    # FPR campaign holds its values live longer, or no member restores one.
    @pytest.mark.parametrize(
        "kind, liveness",
        [(RegKind.GPR, LivenessModel()), (RegKind.FPR, LivenessModel(fpr_data_ttl=400_000))],
    )
    def test_member_builds_one_binding_and_clones_one_dead_array(self, vs, kind, liveness):
        """The count gate of a member's restore: at most one binding is
        built, the planned slot's last write before the restore point,
        and at most one dead allocation is cloned, the one that binding
        holds; every other dead allocation stays on the tape until a
        pointer lands in it, and every other slot stays empty."""
        stream, config, golden, workload, spec = vs
        fast_forward = golden_with_tape(stream, config).fast_forward
        log = fast_forward.tape.fire_log
        build = FastForward._build_binding
        restore_machine = BoundaryFanOut._restore_machine
        built: list = []
        members: list[tuple] = []

        def counted_build(ff, write, *args):
            built.append(write)
            return build(ff, write, *args)

        def restore_spy(fan, injector, live_bases, state):
            built.clear()
            restore_machine(fan, injector, live_bases, state)
            plan = injector.plan
            space = injector.space
            cloned = [aid for aid in space._arrays if aid not in fan.snapshot.live_map]
            occupied = [
                (slot_kind, slot)
                for slot_kind in RegKind
                for slot in range(NUM_REGISTERS)
                if injector.regfile.entry(slot_kind, slot) is not None
            ]
            write = log.slot_at(plan.kind, plan.register, fan.snapshot.checkpoints - 1)
            dead = write is not None and write.aid is not None
            dead = dead and write.aid not in fan.snapshot.live_map
            members.append((plan, write, dead, list(built), cloned, occupied))

        with mock.patch.object(FastForward, "_build_binding", counted_build), mock.patch.object(
            BoundaryFanOut, "_restore_machine", restore_spy
        ):
            run_campaign(
                workload,
                golden.output,
                golden.total_cycles,
                _config(n_injections=64, kind=kind, liveness=liveness, workers=1),
                spec=spec,
            )
        assert members
        for plan, write, dead, built_writes, cloned, occupied in members:
            assert len(built_writes) <= 1 and len(cloned) <= 1, plan
            assert built_writes == ([] if write is None else [write]), plan
            assert cloned == ([write.aid] if dead else []), plan
            assert occupied == ([] if write is None else [(plan.kind, plan.register)]), plan
        assert any(cloned for *_, cloned, _ in members)


class TestTelemetry:
    def test_fanout_counters_surface(self, vs):
        stream, config, golden, workload, spec = vs
        # Fresh handles: fan-out state hangs off the process-cached
        # FastForward handle, and creation-time counters only fire for
        # fan-outs materialized while tracing is on.
        clear_golden_cache()
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
                _config(),
                spec=spec,
            )
            registry = tracer.registry
        finally:
            events.restore(previous)
        groups = registry.counter("campaign.fanout.groups")
        assert groups >= 1
        assert registry.counter("campaign.fanout.shared_restores") == groups
        assert registry.counter("campaign.fanout.cow_clones") > 0
        # The clones made: live state, each member's planned dead array,
        # pointer landings.
        assert registry.counter("campaign.fanout.cow_clones") == 46
        # The bench seed produces masked runs, and masked fan-out
        # members re-converge to the tape — at least one golden tail
        # must have been synthesized (this is where the speedup lives).
        assert registry.counter("campaign.fanout.golden_tail") >= 1
        hits = registry.counter("campaign.fastforward.hits")
        predicted = registry.counter("campaign.fastforward.predicted")
        assert hits + predicted == 16
        # Resumed members: the pointer flips that segfault at the fire,
        # the flips into state dead at the member's restore point and
        # the flips of the frame loop's own cells are decided from the
        # tape, like the dead fires.
        assert hits == 4
        reasons = {
            reason: registry.counter(f"campaign.fastforward.predicted.{reason}")
            for reason in (
                "dead_fire",
                "segfault",
                "dead_target",
                "loop_exit",
                "loop_overrun",
                "loop_reset",
            )
        }
        assert reasons == {
            "dead_fire": 4,
            "segfault": 3,
            "dead_target": 4,
            "loop_exit": 1,
            "loop_overrun": 0,
            "loop_reset": 0,
        }

    def test_trace_summarize_renders_amortization(self, vs, tmp_path):
        stream, config, golden, workload, spec = vs
        clear_golden_cache()
        # A fresh tracer, so the trace covers this campaign alone even
        # when REPRO_TRACE=1 has tracing on for the whole session.
        tracer = telemetry.Tracer()
        previous = events.current()
        events.install(events.EventBus([tracer]))
        try:
            run_campaign(
                workload,
                golden.output,
                golden.total_cycles,
                _config(),
                spec=spec,
            )
            trace_path = write_trace(tmp_path / "trace.jsonl", tracer)
        finally:
            events.restore(previous)
        summary = summarize_trace(trace_path)
        assert any(name.startswith("fanout.suffix.b") for name in summary.stages)
        rendered = render_summary(summary)
        header = "boundary fan-out (restore amortization per group):"
        assert header in rendered
        assert "restore(s) saved" in rendered
        # One row per fan-out created, in-frame restore points included.
        table = rendered.split(header + "\n")[1].splitlines()
        rows = list(itertools.takewhile(lambda line: line.startswith("  "), table))
        assert len(rows) == summary.counters["campaign.fanout.groups"]
        points = [row.split(":")[0].strip() for row in rows]
        assert len(set(points)) == len(points)
        assert any("." in point for point in points)
        # Per-boundary counters feed the table, not the counter dump.
        counters = rendered.split("counters:")[-1]
        assert "campaign.fanout.b" not in counters
        # Decided runs by reason, next to their total.
        assert "  campaign.fastforward.predicted = 12\n" in counters
        assert "  campaign.fastforward.predicted.dead_target = 4\n" in counters
        assert "  campaign.fastforward.predicted.loop_exit = 1\n" in counters
