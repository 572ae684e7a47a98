"""Indexed boundary liveness and the deduplicated snapshot tape.

At every frame boundary ``SnapshotRecorder`` decides which recorded
allocations are live program state (and where they sit in a live base)
and freezes the newly dead ones.  It narrows that decision to the
records whose data pointer lies inside a live base, or that are one.  The
oracle below is the full scan it replaced, kept verbatim: every record
resolved against every live base at every boundary.  Both captures of
each tiny workload must give the same ``live_map`` at every boundary
and the same frozen bytes for every allocation.

The tape also drops what restores never read: allocation records hold
no capture-run array, and a mini-panorama that did not change since the
previous boundary (every closed one) shares that boundary's snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import TINY, input_stream
from repro.faultinject import fastforward
from repro.faultinject.fastforward import SnapshotRecorder, _resolve_live, capture_tape
from repro.summarize.approximations import config_for


class _FullScanRecorder(SnapshotRecorder):
    """The capture as it was before the pointer index: a full scan per boundary.

    Also keeps a private copy of every mini-panorama at every boundary,
    to check the shared snapshots against.
    """

    def __init__(self) -> None:
        super().__init__()
        self.mini_copies: list[list[tuple[np.ndarray, np.ndarray, int]]] = []

    def _settle(self, live_bases):
        live_map = {}
        for record in self.allocs:
            placement = _resolve_live(self._arrays[record.aid], record.nbytes, live_bases)
            if placement is not None:
                live_map[record.aid] = placement
            elif record.frozen is None:
                record.frozen = self._arrays[record.aid].tobytes()
        return live_map

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
        full, oracle = _capture(stream, config, _FullScanRecorder, monkeypatch)
    return indexed, full, oracle


def test_live_map_matches_full_scan_at_every_boundary(tapes):
    indexed, full, _ = tapes
    assert len(indexed.boundaries) == len(full.boundaries) > 1
    for mine, theirs in zip(indexed.boundaries, full.boundaries):
        assert mine.n_allocs == theirs.n_allocs
        assert mine.live_map == theirs.live_map
        assert list(mine.live_map) == list(theirs.live_map)  # aid order
    assert any(b.live_map for b in indexed.boundaries)


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
        assert mine.frozen == theirs.frozen
    assert any(record.frozen is not None for record in indexed.allocs)


def test_alloc_records_hold_no_array(tapes):
    indexed, _, _ = tapes
    for record in indexed.allocs:
        assert not any(isinstance(value, np.ndarray) for value in vars(record).values())


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
    recorders = (SnapshotRecorder(), _FullScanRecorder())
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
            assert mine.frozen == theirs.frozen
