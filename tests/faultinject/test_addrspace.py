"""Tests for the simulated address space."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faultinject import addrspace
from repro.faultinject.addrspace import HEAP_BASE, HEAP_SPAN, PAGE_SIZE, AddressSpace
from repro.runtime.errors import SegmentationFault


class TestAllocation:
    def test_ensure_is_idempotent(self):
        space = AddressSpace(seed=0)
        arr = np.zeros(100, dtype=np.uint8)
        assert space.ensure(arr) == space.ensure(arr)
        assert len(space) == 1

    def test_bases_page_aligned(self):
        space = AddressSpace(seed=1)
        for size in (1, 100, 5000):
            base = space.ensure(np.zeros(size, dtype=np.uint8))
            assert base % PAGE_SIZE == 0

    def test_bases_inside_heap(self):
        space = AddressSpace(seed=2)
        base = space.ensure(np.zeros(10, dtype=np.uint8))
        assert HEAP_BASE <= base < HEAP_BASE + HEAP_SPAN

    def test_allocations_do_not_overlap(self):
        space = AddressSpace(seed=3)
        arrays = [np.zeros(3000, dtype=np.uint8) for _ in range(50)]
        spans = sorted((space.ensure(arr), arr.nbytes) for arr in arrays)
        for (base_a, len_a), (base_b, _len_b) in zip(spans, spans[1:]):
            assert base_a + len_a <= base_b

    def test_rejects_non_arrays(self):
        with pytest.raises(TypeError):
            AddressSpace().ensure([1, 2, 3])

    def test_rejects_non_contiguous(self):
        arr = np.zeros((10, 10), dtype=np.uint8)[:, ::2]
        with pytest.raises(ValueError):
            AddressSpace().ensure(arr)

    def test_mapped_bytes(self):
        space = AddressSpace(seed=4)
        space.ensure(np.zeros(100, dtype=np.uint8))
        space.ensure(np.zeros(50, dtype=np.uint8))
        assert space.mapped_bytes == 150


class TestResolve:
    def test_resolves_inside_allocation(self):
        space = AddressSpace(seed=5)
        arr = np.arange(64, dtype=np.uint8)
        base = space.ensure(arr)
        alloc, offset = space.resolve(base + 10)
        assert alloc.array is arr
        assert offset == 10

    def test_segfaults_outside(self):
        space = AddressSpace(seed=6)
        arr = np.zeros(64, dtype=np.uint8)
        base = space.ensure(arr)
        with pytest.raises(SegmentationFault):
            space.resolve(base + 64)
        with pytest.raises(SegmentationFault):
            space.resolve(base - 1)

    def test_segfaults_on_empty_space(self):
        with pytest.raises(SegmentationFault):
            AddressSpace().resolve(HEAP_BASE)

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=32, deadline=None)
    def test_single_bit_flips_mostly_segfault(self, bit):
        """High-bit pointer flips land outside the sparse heap."""
        space = AddressSpace(seed=7)
        arr = np.zeros(256, dtype=np.uint8)
        base = space.ensure(arr)
        flipped = base ^ (1 << bit)
        if bit >= 46:  # beyond the heap span: guaranteed unmapped
            with pytest.raises(SegmentationFault):
                space.resolve(flipped)


class TestByteWindow:
    def test_returns_flat_view(self):
        space = AddressSpace(seed=8)
        arr = np.arange(32, dtype=np.uint8)
        base = space.ensure(arr)
        view, offset = space.byte_window(base + 4, 8)
        assert offset == 4
        assert np.array_equal(view[4:12], np.arange(4, 12, dtype=np.uint8))

    def test_window_crossing_end_segfaults(self):
        space = AddressSpace(seed=9)
        arr = np.zeros(32, dtype=np.uint8)
        base = space.ensure(arr)
        with pytest.raises(SegmentationFault):
            space.byte_window(base + 30, 8)

    def test_view_aliases_memory(self):
        space = AddressSpace(seed=10)
        arr = np.zeros(16, dtype=np.uint8)
        base = space.ensure(arr)
        view, offset = space.byte_window(base, 16)
        view[offset + 3] = 99
        assert arr[3] == 99

    def test_float_array_window(self):
        space = AddressSpace(seed=11)
        arr = np.ones((4, 4), dtype=np.float64)
        base = space.ensure(arr)
        view, _offset = space.byte_window(base, arr.nbytes)
        assert view.size == arr.nbytes


class TestLazyPlacement:
    """``note`` defers placement; the bases must equal eager placement."""

    @staticmethod
    def _placements(space: AddressSpace, arrays: list[np.ndarray]) -> list[tuple]:
        placements = []
        for arr in arrays:
            base = space.ensure(arr)
            alloc, offset = space.resolve(base)
            assert offset == 0
            placements.append((base, alloc.nbytes, alloc.array is arr))
        return placements

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 3 * PAGE_SIZE), min_size=1, max_size=40),
        uses=st.lists(st.tuples(st.integers(0, 39), st.booleans()), min_size=1, max_size=80),
        flush=st.sampled_from(["ensure", "resolve", "byte_window", "len", "mapped_bytes"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_then_flush_matches_eager(self, seed, sizes, uses, flush):
        """First uses in a random order, some repeated, some forcing
        placement mid-way: the lazy space ends with the same
        ``(base, nbytes, array)`` map as one that placed every array
        eagerly in the same order."""
        arrays = [np.zeros(size, dtype=np.uint8) for size in sizes]
        order = [(index % len(arrays), forced) for index, forced in uses]
        eager, lazy = AddressSpace(seed=seed), AddressSpace(seed=seed)
        for index, forced in order:
            eager.ensure(arrays[index])
            if forced:
                lazy.ensure(arrays[index])
            else:
                lazy.note(arrays[index])
        if flush == "ensure":
            lazy.ensure(arrays[order[0][0]])
        elif flush == "resolve":
            with pytest.raises(SegmentationFault):
                lazy.resolve(0)
        elif flush == "byte_window":
            with pytest.raises(SegmentationFault):
                lazy.byte_window(0, 1)
        elif flush == "len":
            assert len(lazy) == len(eager)
        else:
            assert lazy.mapped_bytes == eager.mapped_bytes
        used = [arrays[index] for index in dict.fromkeys(index for index, _ in order)]
        assert self._placements(lazy, used) == self._placements(eager, used)
        assert len(lazy) == len(eager) == len(used)

    def test_note_checks_eagerly(self):
        with pytest.raises(TypeError):
            AddressSpace().note([1, 2, 3])
        with pytest.raises(ValueError):
            AddressSpace().note(np.zeros((10, 10), dtype=np.uint8)[:, ::2])


def _scalar_placement(seed: int, sizes: list[int], span_pages: int):
    """Reference: place ``sizes`` one array and one draw at a time.

    Each array draws a page until its pages overlap no allocation placed
    before it, at most 64 times.  Returns the bases placed, the
    exception type that stopped placement (None if none did) and the
    generator afterwards.
    """
    rng = np.random.default_rng(seed)
    placed: list[tuple[int, int]] = []
    for size in sizes:
        nbytes = max(size, 1)
        pages = -(-nbytes // PAGE_SIZE)
        for _ in range(64):
            try:
                page = int(rng.integers(0, span_pages - pages))
            except ValueError:
                return [base for base, _ in placed], ValueError, rng
            base = HEAP_BASE + page * PAGE_SIZE
            if all(base + pages * PAGE_SIZE <= b or b + n <= base for b, n in placed):
                placed.append((base, nbytes))
                break
        else:
            return [base for base, _ in placed], RuntimeError, rng
    return [base for base, _ in placed], None, rng


class TestBatchedPlacement:
    """One batched draw per flush equals the scalar loop, collisions included."""

    # A heap of a few hundred pages or less makes redraws common and
    # the "too crowded" error (and, below 7 pages, arrays that cannot
    # fit at all) reachable.  The budget is the active profile's, so
    # ``--hypothesis-profile ci-deep`` searches 1000 cases.
    @given(
        seed=st.integers(0, 2**32 - 1),
        span_pages=st.integers(4, 300),
        sizes=st.lists(st.integers(0, 6 * PAGE_SIZE), min_size=1, max_size=60),
        split=st.integers(0, 60),
    )
    # Seven one-page slots for nine one-page arrays: redraws, then the
    # "too crowded" error at the eighth.
    @example(seed=0, span_pages=8, sizes=[PAGE_SIZE] * 9, split=0)
    # A nine-page array in an eight-page heap, after two that fit.
    @example(seed=1, span_pages=8, sizes=[1, 2 * PAGE_SIZE, 9 * PAGE_SIZE], split=2)
    @settings(deadline=None, max_examples=settings.default.max_examples)
    def test_batched_equals_scalar(self, seed, span_pages, sizes, split):
        """Noted in two runs with a forced flush between them, the space
        places the same bases, leaves the generator in the same state
        and stops with the same error at the same array as the scalar
        reference."""
        expected, error, reference = _scalar_placement(seed, sizes, span_pages)
        arrays = [np.zeros(size, dtype=np.uint8) for size in sizes]
        space = AddressSpace(seed=seed)
        raised = None
        with mock.patch.object(addrspace, "HEAP_SPAN", span_pages * PAGE_SIZE):
            for chunk in (arrays[:split], arrays[split:]):
                for array in chunk:
                    space.note(array)
                try:
                    len(space)
                except (RuntimeError, ValueError) as exc:
                    raised = type(exc)
                    break
        assert raised is error
        assert space._bases == expected
        assert space._rng.bit_generator.state == reference.bit_generator.state
        for array, base in zip(arrays, expected):
            alloc, _ = space.resolve(base + max(array.nbytes, 1) - 1)
            assert alloc.array is array and alloc.base == base

    @given(
        seed=st.integers(0, 2**32 - 1),
        span_pages=st.integers(4, 300),
        sizes=st.lists(st.integers(0, 6 * PAGE_SIZE), min_size=1, max_size=60),
    )
    @example(seed=0, span_pages=8, sizes=[PAGE_SIZE] * 9)
    @example(seed=1, span_pages=8, sizes=[1, 2 * PAGE_SIZE, 9 * PAGE_SIZE])
    @settings(deadline=None, max_examples=settings.default.max_examples)
    def test_layout_equals_scalar(self, seed, span_pages, sizes):
        """A layout placed from sizes alone draws the noted arrays' heap:
        the scalar reference's bases and generator state, or its error."""
        expected, error, reference = _scalar_placement(seed, sizes, span_pages)
        with mock.patch.object(addrspace, "HEAP_SPAN", span_pages * PAGE_SIZE):
            if error is not None:
                with pytest.raises(error):
                    AddressSpace.layout(seed, np.array(sizes, dtype=np.int64))
                return
            layout = AddressSpace.layout(seed, np.array(sizes, dtype=np.int64))
        assert [layout.base(position) for position in range(len(sizes))] == expected
        assert layout._rng.bit_generator.state == reference.bit_generator.state
        for size, base in zip(sizes, expected):
            end = base + max(size, 1)
            assert layout.fault(base, end - base) is None
            assert layout.fault(end - 1, 2).address == end
            if end % PAGE_SIZE:
                # The rest of the last page is unmapped.
                assert layout.fault(end, 1).address == end
