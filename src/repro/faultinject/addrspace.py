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

Placement is lazy and batched.  :meth:`AddressSpace.note` (or
:meth:`~AddressSpace.note_prefix` for a restored run's prefix) records
first use — type and contiguity are checked at once — and draws
nothing.  The
pending arrays are placed the first time an address is needed:
:meth:`~AddressSpace.ensure`'s return value,
:meth:`~AddressSpace.resolve`, :meth:`~AddressSpace.byte_window`,
``len`` or :attr:`~AddressSpace.mapped_bytes`.  One ``rng.integers``
call draws a page for every pending array (the same values and final
generator state as one scalar call per array), and the longest prefix
that overlaps neither the map nor itself is accepted.  At a collision
the generator is rewound to just after the colliding draw and the
next round redraws from there, so every array retries exactly as a
one-at-a-time placement would, up to the same 64 attempts.  Allocation
*i*'s base therefore depends only on the allocations before it, and
the bases equal eager placement's.  Injected runs note every array
they bind but only a pointer flip ever asks for an address, so most
runs never place anything, and a "too crowded" placement error can
only surface when placement is forced.  The draw runs over allocation
sizes alone (:meth:`~AddressSpace._place`), so :meth:`AddressSpace.layout`
can rebuild a run's heap from a list of sizes and decide where a
corrupted pointer lands (:meth:`~AddressSpace.fault`) without the
arrays.

**Dead allocations thaw on demand.**  A restored fan-out member notes
its prefix as the tape's allocation sizes plus the arrays it owns: its
live program state and, at most, one dead allocation its planned
register binds (see :mod:`repro.faultinject.fastforward`).  Every other
allocation of the prefix is dead: placement needs only its size, and
only a corrupted pointer can reach its bytes.  Every pointer goes
through :meth:`~AddressSpace.resolve`, which thaws the dead allocation
it lands in from the tape into an array of the member's own before
returning it.  So ``byte_window``, pointer flips and every other caller
get a writable array of their own, the tape stays pristine, and a
member copies nothing the size of the prefix and checks only the
arrays it owns.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.runtime.errors import SegmentationFault

#: Page size used for alignment of simulated allocations.
PAGE_SIZE = 4096

#: Bottom of the simulated heap.
HEAP_BASE = 1 << 40

#: Size of the region allocations are scattered across.
HEAP_SPAN = (1 << 46) - (1 << 40)

#: Draws one allocation may make before placement gives up.
MAX_ATTEMPTS = 64


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
        #: How many allocations are noted: positions count first uses.
        self._count = 0
        #: position -> every array this space owns; pins the ids below.
        self._arrays: dict[int, np.ndarray] = {}
        #: id -> position of every array in ``_arrays``.
        self._position: dict[int, int] = {}
        #: A restored prefix's allocation sizes, by position, and how
        #: to thaw a dead one this space does not own yet.
        self._prefix = np.empty(0, dtype=np.int64)
        self._thaw: Callable[[int], np.ndarray] | None = None
        #: Base of every placed array, by position: placement is a
        #: prefix of the positions, the rest is pending.
        self._bases: list[int] = []
        #: The map sorted by base: start, end (base + nbytes), position.
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._order = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        self._place_pending()
        return len(self._bases)

    @property
    def mapped_bytes(self) -> int:
        """Total number of mapped bytes."""
        self._place_pending()
        return int((self._ends - self._starts).sum())

    def note(self, array: np.ndarray) -> None:
        """Record ``array``'s first use; its placement is deferred.

        The space keeps a reference to the array, both to serve aliased
        reads and to pin its ``id`` for the lifetime of this address
        space.
        """
        key = id(array)
        if key in self._position:
            return
        _check_mappable(array)
        self._position[key] = self._count
        self._arrays[self._count] = array
        self._count += 1

    def note_prefix(
        self,
        nbytes: np.ndarray,
        thaw: Callable[[int], np.ndarray],
        private: dict[int, np.ndarray],
    ) -> None:
        """Note a restored prefix into this empty space, as one :meth:`note` each would.

        The prefix is ``len(nbytes)`` allocations in first-use order, of
        these sizes (an empty array counts 1): the ``private`` array at
        each of its positions, which is checked here, else a dead
        allocation that ``thaw(position)`` returns a fresh copy of (see
        the module docstring).  The space keeps ``nbytes`` as it is, so
        it may not change.
        """
        if self._count:
            raise ValueError("a prefix can only be noted into an empty address space")
        for index, array in private.items():
            _check_mappable(array)
            if not 0 <= index < len(nbytes) or max(array.nbytes, 1) != nbytes[index]:
                raise ValueError(f"private array {index} does not fit the prefix")
            self._position[id(array)] = index
        if len(self._position) != len(private):
            raise ValueError("one private array is noted at two positions")
        self._arrays = dict(private)
        self._prefix, self._thaw, self._count = nbytes, thaw, len(nbytes)

    def ensure(self, array: np.ndarray) -> int:
        """Return the base address of ``array``, allocating on first use."""
        self.note(array)
        return self.base(self._position[id(array)])

    @classmethod
    def layout(cls, seed: int, nbytes: np.ndarray) -> "AddressSpace":
        """The heap a space seeded ``seed`` draws for allocations of these sizes.

        Places them exactly as noting arrays of these ``nbytes``, in
        order, and forcing placement would, but holds no array: its
        bases (:meth:`base`) and :meth:`fault` are defined, resolving
        an address is not.  Raises what that placement raises.
        """
        space = cls(seed)
        space._place(nbytes)
        return space

    def base(self, position: int) -> int:
        """Base address of the allocation noted at ``position``."""
        self._place_pending()
        return self._bases[position]

    def _place_pending(self) -> None:
        """Place every noted allocation, in first-use order."""
        placed = len(self._bases)
        if placed < self._count:
            noted = range(max(placed, len(self._prefix)), self._count)
            nbytes = np.fromiter((self._arrays[p].nbytes for p in noted), np.int64, len(noted))
            self._place(np.concatenate((self._prefix[placed:], nbytes)))

    def _place(self, nbytes: np.ndarray) -> None:
        """Place the next ``len(nbytes)`` allocations, of these sizes, in batched draws."""
        nbytes = np.maximum(nbytes, 1)
        pages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        highs = HEAP_SPAN // PAGE_SIZE - pages
        # An array larger than the heap fails its first draw, after
        # every array before it has been placed.
        too_large = np.flatnonzero(highs <= 0)
        limit = int(too_large[0]) if too_large.size else len(nbytes)
        rng = self._rng
        start = 0
        attempts = 0  # failed draws of the array at ``start``
        while start < len(nbytes):
            if start == limit:
                raise ValueError("allocation does not fit in the heap span")
            state = rng.bit_generator.state
            bases = HEAP_BASE + rng.integers(0, highs[start:limit]) * PAGE_SIZE
            accepted = self._free_prefix(bases, pages[start:limit] * PAGE_SIZE)
            if start + accepted < limit:
                # The array after the accepted prefix collided: rewind
                # to just after its draw, so the next round is its retry.
                rng.bit_generator.state = state
                rng.integers(0, highs[start : start + accepted + 1])
                attempts = attempts + 1 if accepted == 0 else 1
            self._map(bases[:accepted], nbytes[start : start + accepted])
            start += accepted
            if attempts == MAX_ATTEMPTS:
                raise RuntimeError("address space too crowded to place a new allocation")

    def _free_prefix(self, bases: np.ndarray, lengths: np.ndarray) -> int:
        """How many leading candidates overlap neither the map nor each other.

        Candidates span whole pages.  Every base is page-aligned, so a
        candidate overlaps a placed array's bytes exactly when it
        overlaps its pages, and the map keeps byte ends for ``resolve``.
        """
        ends = bases + lengths
        limit = len(bases)
        if self._starts.size:
            # The last allocation starting inside a candidate is the only
            # one that can overlap it: the map itself is disjoint.
            index = np.searchsorted(self._starts, ends - 1, side="right")
            hits = (index > 0) & (self._ends[index - 1] > bases)
            if hits.any():
                limit = int(hits.argmax())
        if _disjoint(bases[:limit], ends[:limit]):
            return limit
        # Disjointness only fails for longer prefixes: bisect the length.
        low, high = 0, limit
        while high - low > 1:
            middle = (low + high) // 2
            if _disjoint(bases[:middle], ends[:middle]):
                low = middle
            else:
                high = middle
        return low

    def _map(self, bases: np.ndarray, nbytes: np.ndarray) -> None:
        """Add the next ``len(bases)`` pending arrays to the map."""
        first = len(self._bases)
        starts = np.concatenate((self._starts, bases))
        order = np.argsort(starts)
        self._starts = starts[order]
        self._ends = np.concatenate((self._ends, bases + nbytes))[order]
        positions = np.arange(first, first + len(bases), dtype=np.int64)
        self._order = np.concatenate((self._order, positions))[order]
        self._bases.extend(bases.tolist())

    def _find(self, address: int) -> int | None:
        """Index, in base order, of the allocation holding ``address``, if any."""
        self._place_pending()
        starts, ends = self._starts, self._ends
        # The last allocation by base ends highest: the map is disjoint.
        if starts.size and int(starts[0]) <= address < int(ends[-1]):
            index = int(np.searchsorted(starts, address, side="right")) - 1
            if address < int(ends[index]):
                return index
        return None

    def fault(self, address: int, length: int) -> SegmentationFault | None:
        """The fault a ``length``-byte access at ``address`` takes, or None.

        The whole window must be mapped, matching the first-fault
        behaviour of a streaming access: an unmapped ``address``
        faults there, a window crossing the end of its allocation
        faults at that end.
        """
        index = self._find(address)
        if index is None:
            return SegmentationFault(address)
        end = int(self._ends[index])
        if address + length > end:
            return SegmentationFault(end, "access crosses allocation end")
        return None

    def holder(self, address: int) -> int | None:
        """Position of the allocation holding ``address``, or None if unmapped."""
        index = self._find(address)
        return None if index is None else int(self._order[index])

    def resolve(self, address: int) -> tuple[Allocation, int]:
        """Map ``address`` to ``(allocation, byte_offset)`` or segfault.

        A dead allocation of a restored prefix is thawed into an array
        of this space's own first, so the returned allocation's array is
        always the caller's to write.
        """
        index = self._find(address)
        if index is None:
            raise SegmentationFault(address)
        base, end = int(self._starts[index]), int(self._ends[index])
        position = int(self._order[index])
        array = self._arrays.get(position)
        if array is None:
            array = self._arrays[position] = self._thaw(position)
            self._position[id(array)] = position
            telemetry.counter_inc("campaign.fanout.cow_clones")
        return Allocation(base=base, nbytes=end - base, array=array), address - base

    def byte_window(self, address: int, length: int) -> tuple[np.ndarray, int]:
        """Resolve a read/write of ``length`` bytes at ``address``.

        Returns ``(flat_uint8_view, offset)`` into the owning allocation,
        or raises the access's :meth:`fault`.
        """
        fault = self.fault(address, length)
        if fault is not None:
            raise fault
        alloc, offset = self.resolve(address)
        view = alloc.array.reshape(-1).view(np.uint8)
        return view, offset


def _check_mappable(array: np.ndarray) -> None:
    """Only C-contiguous numpy arrays can be mapped."""
    if not isinstance(array, np.ndarray):
        raise TypeError(f"only numpy arrays can be mapped, got {type(array)!r}")
    if not array.flags.c_contiguous:
        raise ValueError("only C-contiguous arrays can be mapped")


def _disjoint(bases: np.ndarray, ends: np.ndarray) -> bool:
    """Whether the extents ``[bases, ends)`` are pairwise disjoint."""
    order = np.argsort(bases)
    return not (bases[order][1:] < ends[order][:-1]).any()
