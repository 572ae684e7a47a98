"""Indexed boundary liveness, unpinned dead arrays and the deduplicated tape.

At every frame boundary ``SnapshotRecorder`` decides which recorded
allocations are live program state (and where they sit in a live base)
and freezes the newly dead ones.  It narrows that decision to the
records, among the arrays still alive, whose data pointer lies inside a
live base, or that are one; it unpins an array once it freezes it; and
it snapshots a closed mini-panorama once, when it closes, keeping it
read-only from then on.  The oracle below is the capture as it was
before any of that, kept as it was: it pins every array until the
capture ends, resolves every record against every live base at every
boundary, and compares every mini with its previous snapshot at every
boundary, and it keeps each dead array's bytes as they were at freeze,
in the array's own dtype.  Both captures of each tiny workload must
give the same tape: allocations with their frozen content (thawed),
live maps, mini and feature snapshots, and the fire log.

The tape also drops what restores never read: allocation records hold
no capture-run array, their frozen content is stored narrowed, and a
mini-panorama that did not change since the previous boundary (every
closed one) shares that boundary's snapshot.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import QUICK, TINY, input_stream
from repro.faultinject import fastforward
from repro.faultinject.fastforward import (
    SnapshotRecorder,
    _resolve_live,
    _snapshot_mini,
    capture_tape,
)
from repro.runtime.context import ExecutionContext
from repro.summarize.approximations import config_for
from repro.summarize.pipeline import run_vs


class _PinningRecorder(SnapshotRecorder):
    """The capture before it unpinned frozen arrays: every pin, a full scan per
    boundary, a compare of every mini at every boundary, and each dead
    array's bytes at freeze, stored unnarrowed in its own dtype.

    Also keeps a private copy of every mini-panorama at every boundary,
    to check the shared snapshots against.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pinned: list[np.ndarray] = []
        self.mini_copies: list[list[tuple[np.ndarray, np.ndarray, int]]] = []

    def _ensure(self, array):
        aid = super()._ensure(array)
        if aid == len(self.pinned):
            self.pinned.append(array)
        return aid

    def _settle(self, live_bases):
        live_map = {}
        for record in self.allocs:
            placement = _resolve_live(self.pinned[record.aid], record.nbytes, live_bases)
            if placement is not None:
                live_map[record.aid] = placement
            elif record.frozen is None:
                raw = self.pinned[record.aid].tobytes()
                record.frozen = np.frombuffer(raw, dtype=record.dtype)
        return live_map

    def _snapshot_minis(self, minis, previous):
        return [
            _snapshot_mini(mini, previous[k] if k < len(previous) else None)
            for k, mini in enumerate(minis)
        ]

    def restore_point(self, ctx, rng, state) -> None:
        super().restore_point(ctx, rng, state)
        self.mini_copies.append(
            [
                (mini.canvas.copy(), mini.coverage.copy(), mini.frames_composited)
                for mini in state.minis
            ]
        )


def _capture(stream, config, recorder_cls, monkeypatch):
    made: list[SnapshotRecorder] = []

    def build():
        made.append(recorder_cls())
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fastforward, "SnapshotRecorder", build)
        tape = capture_tape(stream, config).fast_forward.tape
    return tape, made[0]


@pytest.fixture(
    scope="module",
    params=[
        (which, algorithm) for which in ("input1", "input2") for algorithm in ("VS", "VS_RFD")
    ],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def tapes(request):
    which, algorithm = request.param
    stream = input_stream(which, TINY)
    config = config_for(algorithm)
    with pytest.MonkeyPatch.context() as monkeypatch:
        indexed, _ = _capture(stream, config, SnapshotRecorder, monkeypatch)
        full, oracle = _capture(stream, config, _PinningRecorder, monkeypatch)
    return indexed, full, oracle


def test_live_map_matches_full_scan_at_every_boundary(tapes):
    indexed, full, _ = tapes
    assert len(indexed.boundaries) == len(full.boundaries) > 1
    for mine, theirs in zip(indexed.boundaries, full.boundaries):
        assert mine.n_allocs == theirs.n_allocs
        assert mine.live_map == theirs.live_map
        assert list(mine.live_map) == list(theirs.live_map)  # aid order
    assert any(b.live_map for b in indexed.boundaries)


def _content(record) -> bytes | None:
    """A record's frozen content as the bytes of its array, or None while live."""
    return None if record.frozen is None else record.thaw().tobytes()


def test_frozen_bytes_match_full_scan(tapes):
    indexed, full, _ = tapes
    assert len(indexed.allocs) == len(full.allocs) > 0
    for mine, theirs in zip(indexed.allocs, full.allocs):
        assert (mine.aid, mine.dtype, mine.shape, mine.nbytes) == (
            theirs.aid,
            theirs.dtype,
            theirs.shape,
            theirs.nbytes,
        )
        assert _content(mine) == _content(theirs)
        if mine.frozen is not None:
            assert mine.frozen.nbytes <= theirs.frozen.nbytes
    assert any(record.frozen is not None for record in indexed.allocs)


def test_alloc_records_hold_no_array(tapes):
    """The one array a record holds is its frozen copy: read-only, and owning
    its memory, so no capture-run array stays reachable through it."""
    indexed, _, _ = tapes
    for record in indexed.allocs:
        arrays = [value for value in vars(record).values() if isinstance(value, np.ndarray)]
        assert arrays == ([] if record.frozen is None else [record.frozen])
        for array in arrays:
            assert array.flags.owndata and not array.flags.writeable


def test_closed_minis_share_snapshots_across_boundaries(tapes):
    indexed, _, oracle = tapes
    shared = 0
    for previous, boundary in zip(indexed.boundaries, indexed.boundaries[1:]):
        # Every mini closed at the previous boundary is final by then.
        for k in range(len(previous.minis) - 1):
            assert boundary.minis[k] is previous.minis[k]
            shared += 1
    # Not vacuous: a closed mini before the last boundary is shared at the next.
    assert shared > 0 or max(len(b.minis) for b in indexed.boundaries[:-1]) <= 1
    # Shared or not, every snapshot equals the mini at its own boundary.
    for boundary, copies in zip(indexed.boundaries, oracle.mini_copies):
        assert len(boundary.minis) == len(copies)
        for snapshot, (canvas, coverage, composited) in zip(boundary.minis, copies):
            assert snapshot.frames_composited == composited
            assert snapshot.canvas.dtype == canvas.dtype
            assert np.array_equal(snapshot.canvas, canvas)
            assert np.array_equal(snapshot.coverage, coverage)


def _views(base: np.ndarray):
    """Arrays a recorder may see around ``base``: itself, views, copies."""
    flat = base.reshape(-1)
    n = flat.shape[0]
    index = st.integers(-n - 2, n + 2)
    step = st.sampled_from([1, 2, 3, -1, -2])
    views = [
        st.just(base),
        st.just(flat.copy()),
        st.builds(lambda a, b, k: flat[a:b:k], index, index, step),
        st.builds(lambda a, b: base[a:b], index, index),
        st.builds(lambda a, b: base[:, a:b] if base.ndim == 2 else base[a:b], index, index),
    ]
    if flat.flags.c_contiguous:
        views.append(st.builds(lambda a: flat[a:].view(np.uint8), index))
    return st.one_of(*views)


#: Live bases of one synthetic boundary: a canvas-like 2-D array, a
#: descriptor-like byte array, a zero-size feature array, and a
#: negative-stride view whose data pointer is its highest address.
_BASES = (
    np.zeros((6, 8)),
    np.arange(48, dtype=np.uint8).reshape(12, 4),
    np.zeros((0, 2), dtype=np.int64),
    np.arange(40, dtype=np.int16)[::-1],
)


@settings(max_examples=150, deadline=None)
@given(
    picks=st.lists(
        st.one_of(*(_views(base) for base in _BASES), st.just(np.zeros(5))),
        min_size=1,
        max_size=12,
    ),
    live_later=st.lists(st.booleans(), min_size=len(_BASES), max_size=len(_BASES)),
)
def test_settle_matches_full_scan_on_views(picks, live_later):
    """Identity hits, contained views, partial overlaps, negative strides and
    zero-size arrays get the full scan's answer, boundary after boundary."""
    recorders = (SnapshotRecorder(), _PinningRecorder())
    keys = [(("base", k), base) for k, base in enumerate(_BASES)]
    for recorder in recorders:
        for array in picks:
            recorder._ensure(array)
    # Two boundaries: all bases live, then only some (records die late).
    for live_bases in (keys, [kb for kb, live in zip(keys, live_later) if live]):
        indexed, full = (recorder._settle(live_bases) for recorder in recorders)
        assert indexed == full
        assert list(indexed) == list(full)
        for mine, theirs in zip(recorders[0].allocs, recorders[1].allocs):
            assert _content(mine) == _content(theirs)


def _same(mine, theirs) -> bool:
    """Deep equality of tape data: arrays by dtype, shape and bytes, and
    allocation records by their fields and thawed content."""
    if isinstance(mine, fastforward.AllocRecord):
        return (
            isinstance(theirs, fastforward.AllocRecord)
            and (mine.aid, mine.dtype, mine.shape, mine.nbytes)
            == (theirs.aid, theirs.dtype, theirs.shape, theirs.nbytes)
            and _content(mine) == _content(theirs)
        )
    if isinstance(mine, np.ndarray):
        return (
            isinstance(theirs, np.ndarray)
            and (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
            and mine.tobytes() == theirs.tobytes()
        )
    if isinstance(mine, (list, tuple)):
        return type(mine) is type(theirs) and len(mine) == len(theirs) and all(
            map(_same, mine, theirs)
        )
    if isinstance(mine, dict):
        return list(mine) == list(theirs) and all(_same(mine[k], theirs[k]) for k in mine)
    if dataclasses.is_dataclass(mine) and not isinstance(mine, type):
        return type(mine) is type(theirs) and all(
            _same(getattr(mine, f.name), getattr(theirs, f.name))
            for f in dataclasses.fields(mine)
            if not f.name.startswith("_")
        )
    return mine == theirs


def _sharing(tape) -> list[list[int]]:
    """Which boundaries share one mini or feature snapshot object."""
    first_seen: dict[int, int] = {}
    return [
        [
            first_seen.setdefault(id(snapshot), len(first_seen))
            for snapshot in (*boundary.minis, boundary.prev_features, boundary.features)
            if snapshot is not None
        ]
        for boundary in tape.boundaries
    ]


def test_tape_equals_pinning_capture(tapes):
    """The differential tape check: unpinning frozen arrays, leaving dead
    arrays out of the candidate search and snapshotting closed minis once
    change nothing on the tape, down to which boundaries share a snapshot."""
    indexed, full, _ = tapes
    for name in (
        "allocs",
        "boundaries",
        "fire_log",
        "probe_events",
        "golden_cycles",
        "exit_cycles",
        "frame_shape",
        "golden_output",
        "composites",
        "boundary_cycles",
    ):
        assert _same(getattr(indexed, name), getattr(full, name)), name
    assert _sharing(indexed) == _sharing(full)


def test_no_allocation_is_live_after_it_died(tapes):
    """The relive invariant that lets frozen allocations leave the
    candidate search: an allocation frozen dead at one boundary is in no
    later boundary's live map, even under the oracle that pins every
    array and scans every record."""
    for tape in tapes[:2]:
        died: dict[int, int] = {}
        for k, boundary in enumerate(tape.boundaries):
            for aid in range(boundary.n_allocs):
                if aid in boundary.live_map:
                    assert aid not in died, (aid, died.get(aid), k)
                else:
                    died.setdefault(aid, k)
        assert died


def test_reused_id_gets_a_fresh_aid():
    """A frozen array that dies drops its id: a new array that reuses the
    id before the next boundary is a new allocation."""
    recorder = SnapshotRecorder()
    array = np.arange(6.0)
    aid = recorder._ensure(array)
    recorder._settle([])
    assert recorder.allocs[aid].thaw().tobytes() == array.tobytes()
    key = id(array)
    del array
    # Keep every miss alive, so the allocator hands out the dead slot.
    misses = []
    for _ in range(256):
        fresh = np.arange(6.0)
        if id(fresh) == key:
            break
        misses.append(fresh)
    else:
        pytest.fail("no new array reused the dead array's id")
    fresh_aid = recorder._ensure(fresh)
    assert fresh_aid == len(recorder.allocs) - 1 != aid
    assert recorder._settle([(("live",), fresh)]) == {fresh_aid: (("live",), 0, True)}


def test_dead_array_stale_pointer_places_nothing():
    """A dead view's data pointer still lies inside its live base, but a
    dead array is a dead allocation: only the base is placed."""
    recorder = SnapshotRecorder()
    base = np.zeros(16)
    view = base[4:8]
    view_aid = recorder._ensure(view)
    recorder._settle([])
    del view
    base_aid = recorder._ensure(base)
    live_map = recorder._settle([(("base",), base)])
    assert live_map == {base_aid: (("base",), 0, True)}
    assert recorder.allocs[view_aid].frozen is not None


def test_frozen_array_live_again_is_refused():
    """Should a frozen array that is still alive become live program state
    again, the capture refuses it rather than restore stale bytes."""
    recorder = SnapshotRecorder()
    base = np.zeros(8)
    recorder._ensure(base)
    recorder._settle([])
    with pytest.raises(fastforward.SnapshotUnsupported, match="live again"):
        recorder._settle([(("base",), base)])


def _traced(run):
    """``(kept, held, peak)``: ``run()``'s result and the bytes it left
    held and peaked at, traced by ``tracemalloc`` from its start."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = run()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, held - start, peak - start


def test_capture_peak_is_what_it_holds():
    """Memory gate: each dead byte is held once, as its frozen copy.

    Over one 24-frame input1/VS capture, the transient above what the
    capture still holds once it returns (tape and golden run) exceeds a
    plain ``run_vs`` of the same stream's transient, FAST's and Harris's
    temporaries, by at most 2% of what the capture holds: 0.03 MiB
    against 0.15 MiB allowed.  Pinning every array until the capture
    ended made the peak 1.75 times what the capture holds.
    """
    stream = input_stream("input1", TINY)
    config = config_for("VS")
    golden, held, peak = _traced(lambda: capture_tape(stream, config))
    _, plain_held, plain_peak = _traced(lambda: run_vs(stream, config, ExecutionContext()))
    frozen = sum(r.frozen.nbytes for r in golden.fast_forward.tape.allocs if r.frozen is not None)
    assert held > frozen > 0
    excess = (peak - held) - (plain_peak - plain_held)
    assert excess <= 0.02 * held, (excess, peak - held, plain_peak - plain_held, held)


def _mini_compares(stream, config):
    """``_mini_equal`` calls of one capture: per boundary, and at its end."""
    calls: list[int] = []
    per_point: list[int] = []
    equal = fastforward._mini_equal
    snapshot_minis = SnapshotRecorder._snapshot_minis

    def counted(*args):
        calls.append(1)
        return equal(*args)

    def spy(recorder, minis, previous):
        before = len(calls)
        snapshots = snapshot_minis(recorder, minis, previous)
        per_point.append(len(calls) - before)
        return snapshots

    with mock.patch.object(fastforward, "_mini_equal", counted), mock.patch.object(
        SnapshotRecorder, "_snapshot_minis", spy
    ):
        golden = capture_tape(stream, config)
    return per_point, len(calls) - sum(per_point), golden.fast_forward.tape


def test_mini_compares_per_point_do_not_grow():
    """Compare gate: a boundary compares the open mini, and a mini that
    closed since the previous boundary once more; a closed one is never
    compared again until the capture's one check at its end.  So the
    compares per boundary are the same on 24 and 48 frames of input1/VS,
    where comparing every mini at every boundary made 1.9 and 2.9."""
    means = []
    for scale in (TINY, QUICK):
        per_point, at_end, tape = _mini_compares(input_stream("input1", scale), config_for("VS"))
        assert len(per_point) == len(tape.boundaries)
        closed = len(tape.boundaries[-1].minis) - 1
        assert max(per_point) <= 2
        assert sum(per_point) <= sum(1 for b in tape.boundaries if b.minis) + closed
        assert at_end == closed
        means.append((sum(per_point) + at_end) / len(per_point))
    assert all(mean <= 1.1 for mean in means), means


def test_frozen_content_is_stored_narrow():
    """Storage gate: the tape stores its dead arrays' content in at most 0.35
    of their bytes, on 24 and 48 frames of input1/VS.  Stored in their
    own dtypes, they took all of them."""
    for scale in (TINY, QUICK):
        golden = capture_tape(input_stream("input1", scale), config_for("VS"))
        frozen = [r for r in golden.fast_forward.tape.allocs if r.frozen is not None]
        dead = sum(r.frozen.size * r.dtype.itemsize for r in frozen)
        stored = sum(r.frozen.nbytes for r in frozen)
        assert 0 < stored <= 0.35 * dead, (scale.name, stored / dead)
