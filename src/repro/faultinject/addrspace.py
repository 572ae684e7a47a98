"""Simulated process address space for pointer-corruption semantics.

The paper's GPR injections frequently corrupt pointers held in registers;
whether the corrupted access segfaults or silently reads/writes the wrong
data depends on the process memory map.  This module models that map:
arrays used by the kernels are *allocated* at sparse, page-aligned virtual
addresses, and a corrupted pointer is resolved against the map —
landing outside any allocation raises
:class:`~repro.runtime.errors.SegmentationFault`, landing inside a mapped
allocation yields an aliased view of that allocation's bytes.

The layout is deliberately sparse (allocations scattered across a ~2^46
byte heap), so the vast majority of single-bit pointer flips leave the
mapped region — which is what produces the paper's segfault-dominated
GPR crash profile.

Placement is lazy.  :meth:`AddressSpace.note` records an array's first
use (type and contiguity are checked at once) and draws nothing; the
pending arrays are placed, in first-use order and with the same RNG
calls eager placement would make, the first time an address is needed:
:meth:`~AddressSpace.ensure`'s return value, :meth:`~AddressSpace.resolve`,
:meth:`~AddressSpace.byte_window`, ``len`` or
:attr:`~AddressSpace.mapped_bytes`.  The bases are identical to eager
placement because allocation *i*'s base depends only on the allocations
before it.  Injected runs note every array they bind but only a pointer
flip ever asks for an address, so most runs never place anything — and
a "too crowded" placement error can only surface when placement is
forced.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.runtime.errors import SegmentationFault

#: Page size used for alignment of simulated allocations.
PAGE_SIZE = 4096

#: Bottom of the simulated heap.
HEAP_BASE = 1 << 40

#: Size of the region allocations are scattered across.
HEAP_SPAN = (1 << 46) - (1 << 40)


@dataclass
class Allocation:
    """One mapped region backed by a live numpy array."""

    base: int
    nbytes: int
    array: np.ndarray

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.base + self.nbytes

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this allocation."""
        return self.base <= address < self.end


class AddressSpace:
    """Registry of simulated allocations with pointer resolution."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._bases: list[int] = []  # sorted allocation bases
        self._allocs: list[Allocation] = []  # parallel to _bases
        self._by_id: dict[int, Allocation] = {}
        #: id -> array for every noted array; pins the ids.
        self._noted: dict[int, np.ndarray] = {}
        #: Noted but not yet placed, in first-use order.
        self._pending: list[np.ndarray] = []

    def __len__(self) -> int:
        self._place_pending()
        return len(self._allocs)

    @property
    def mapped_bytes(self) -> int:
        """Total number of mapped bytes."""
        self._place_pending()
        return sum(alloc.nbytes for alloc in self._allocs)

    def note(self, array: np.ndarray) -> None:
        """Record ``array``'s first use; its placement is deferred.

        The space keeps a reference to the array, both to serve aliased
        reads and to pin its ``id`` for the lifetime of this address
        space.
        """
        key = id(array)
        if key in self._noted:
            return
        if not isinstance(array, np.ndarray):
            raise TypeError(f"only numpy arrays can be mapped, got {type(array)!r}")
        if not array.flags.c_contiguous:
            raise ValueError("only C-contiguous arrays can be mapped")
        self._noted[key] = array
        self._pending.append(array)

    def ensure(self, array: np.ndarray) -> int:
        """Return the base address of ``array``, allocating on first use."""
        self.note(array)
        self._place_pending()
        return self._by_id[id(array)].base

    def _place_pending(self) -> None:
        """Place every noted allocation, in first-use order."""
        placed = 0
        try:
            for array in self._pending:
                nbytes = max(int(array.nbytes), 1)
                base = self._place(nbytes)
                alloc = Allocation(base=base, nbytes=nbytes, array=array)
                index = bisect.bisect_left(self._bases, base)
                self._bases.insert(index, base)
                self._allocs.insert(index, alloc)
                self._by_id[id(array)] = alloc
                placed += 1
        finally:
            del self._pending[:placed]

    def _place(self, nbytes: int) -> int:
        """Pick a random page-aligned, non-overlapping base address."""
        pages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        span_pages = HEAP_SPAN // PAGE_SIZE - pages
        for _ in range(64):
            page = int(self._rng.integers(0, span_pages))
            base = HEAP_BASE + page * PAGE_SIZE
            if not self._overlaps(base, pages * PAGE_SIZE):
                return base
        raise RuntimeError("address space too crowded to place a new allocation")

    def _overlaps(self, base: int, length: int) -> bool:
        index = bisect.bisect_right(self._bases, base + length - 1)
        if index > 0:
            prev = self._allocs[index - 1]
            if prev.end > base:
                return True
        if index < len(self._allocs) and self._allocs[index].base < base + length:
            return True
        return False

    def resolve(self, address: int) -> tuple[Allocation, int]:
        """Map ``address`` to ``(allocation, byte_offset)`` or segfault."""
        self._place_pending()
        index = bisect.bisect_right(self._bases, address) - 1
        if index >= 0:
            alloc = self._allocs[index]
            if alloc.contains(address):
                return alloc, address - alloc.base
        raise SegmentationFault(address)

    def byte_window(self, address: int, length: int) -> tuple[np.ndarray, int]:
        """Resolve a read/write of ``length`` bytes at ``address``.

        Returns ``(flat_uint8_view, offset)`` into the owning allocation.
        The whole window must be mapped, matching the first-fault
        behaviour of a streaming access.
        """
        alloc, offset = self.resolve(address)
        if offset + length > alloc.nbytes:
            raise SegmentationFault(address + alloc.nbytes - offset, "access crosses allocation end")
        view = alloc.array.reshape(-1).view(np.uint8)
        return view, offset
