"""Tests for the simulated address space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
