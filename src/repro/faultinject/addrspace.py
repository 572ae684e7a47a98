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

**Shared stand-ins.**  A restored fan-out member maps its prefix's
dead allocations as *shared read-only stand-ins*: the one decoded copy
of their frozen bytes that every member of the group maps (see
:mod:`repro.faultinject.fastforward`).  Only a corrupted pointer can
reach one, and every pointer goes through
:meth:`~AddressSpace.resolve`, which swaps the allocation it lands in
for a private copy before returning it.  So ``byte_window``, pointer
flips and every other caller get a writable array of their own, and
the shared bytes stay pristine.  The stand-ins are named explicitly
(:func:`shared_positions`, passed to ``note_prefix``), not inferred
from ``flags.writeable``: a full run may map read-only arrays of its
own, and those alias as themselves.  Their checks and their id ->
position map are made once per fan-out, and a member's space looks
positions and ids up in the fan-out's stand-ins first and in its own
small maps second: it copies nothing the size of the prefix, and
checks only the arrays it owns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
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
        #: A restored prefix's shared read-only stand-ins, by position
        #: (None where this space owns the array), and their id ->
        #: position map; both belong to the fan-out and never change.
        self._stand_ins: Sequence[np.ndarray | None] = ()
        self._shared: dict[int, int] = {}
        #: Stand-ins ``resolve`` swapped for a private copy.
        self._swapped: list[np.ndarray] = []
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
        if key in self._shared or key in self._position:
            return
        _check_mappable(array)
        self._position[key] = self._count
        self._arrays[self._count] = array
        self._count += 1

    def note_prefix(
        self,
        stand_ins: Sequence[np.ndarray | None],
        shared: dict[int, int],
        private: dict[int, np.ndarray],
    ) -> None:
        """Note a restored prefix into this empty space, as one :meth:`note` each would.

        The prefix is ``len(stand_ins)`` arrays in first-use order,
        without repeats: the ``private`` array at each of its positions,
        else the shared read-only stand-in there.  ``shared`` is the id
        -> position map of those stand-ins (see the module docstring),
        made and checked once per fan-out by :func:`shared_positions`;
        the ``private`` arrays are checked here.  The space keeps
        ``stand_ins`` and ``shared`` as they are, so neither may change.
        """
        if self._count:
            raise ValueError("a prefix can only be noted into an empty address space")
        for index, array in private.items():
            _check_mappable(array)
            self._position[id(array)] = index
        covered = len(shared) + sum(stand_ins[index] is None for index in private)
        if len(self._position) != len(private) or covered != len(stand_ins):
            raise ValueError("the prefix is not covered once by its shared and private arrays")
        self._arrays = dict(private)
        self._stand_ins, self._shared, self._count = stand_ins, shared, len(stand_ins)

    def ensure(self, array: np.ndarray) -> int:
        """Return the base address of ``array``, allocating on first use."""
        self.note(array)
        key = id(array)
        return self.base(self._shared[key] if key in self._shared else self._position[key])

    def array(self, position: int) -> np.ndarray:
        """The array noted at ``position``: this space's own, else the shared stand-in."""
        array = self._arrays.get(position)
        return self._stand_ins[position] if array is None else array

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
        pending = range(len(self._bases), self._count)
        if pending:
            nbytes = (self.array(position).nbytes for position in pending)
            self._place(np.fromiter(nbytes, np.int64, len(pending)))

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

        A shared stand-in is swapped for a private copy first, so the
        returned allocation's array is always the caller's to write.
        """
        index = self._find(address)
        if index is None:
            raise SegmentationFault(address)
        base, end = int(self._starts[index]), int(self._ends[index])
        position = int(self._order[index])
        array = self._arrays.get(position)
        if array is None:
            stand_in = self._stand_ins[position]
            self._swapped.append(stand_in)
            array = self._arrays[position] = stand_in.copy()
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


def shared_positions(arrays: Iterable[tuple[int, np.ndarray]]) -> dict[int, int]:
    """The id -> position map of shared stand-ins ``(position, array)``, each checked once.

    Made once per fan-out and handed to every member's
    :meth:`AddressSpace.note_prefix`.
    """
    positions: dict[int, int] = {}
    for index, array in arrays:
        _check_mappable(array)
        positions[id(array)] = index
    return positions


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
