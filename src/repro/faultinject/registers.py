"""Architectural register-file model and the kernel binding API.

The paper injects single bit flips into the POWER architectural register
file: 32 general-purpose registers (GPRs) and 32 floating-point registers
(FPRs), 64 bits each, at a random execution cycle (Section V-B).

This module models that register file for a Python/numpy program.  At
*checkpoints*, kernels **bind** the values currently living in registers:

* scalars held across loop iterations (:class:`repro.runtime.context.Cell`),
* pointers into arrays (bound with the owning array and byte offset),
* streaming data elements (bound as whole arrays; a flip corrupts one
  element, modelling the register the elements stream through),
* floating-point working values (FPR bindings).

Each binding carries a *role* (DATA / ADDRESS / CONTROL) and a *liveness
lease* (ttl in cycles).  Bindings are written into one of 32 slots per
register kind (slot chosen by a stable hash of the binding's site and
name).  When the injector fires at its planned (cycle, register, bit)
site, the slot's current binding — if still live — is corrupted through
its ``flip`` method; empty, stale, or truncated targets leave the program
untouched (the paper's dead-register masking).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from repro.faultinject.addrspace import AddressSpace
from repro.runtime.context import Cell

_MASK64 = (1 << 64) - 1

#: Number of architectural registers per kind, matching the paper's POWER
#: register file (Fig. 9b shows 32 GPRs).
NUM_REGISTERS = 32

#: Register width in bits (the paper flips one of 64 bits).
REGISTER_BITS = 64


class RegKind(Enum):
    """Register file kind."""

    GPR = "gpr"
    FPR = "fpr"


class Role(Enum):
    """What the register is used for; drives default liveness and
    failure semantics."""

    DATA = "data"
    ADDRESS = "address"
    CONTROL = "control"


class FlipEffect(Enum):
    """What actually happened when the planned flip fired."""

    APPLIED = "applied"  # live value corrupted
    DEAD_EMPTY = "dead_empty"  # register slot never written
    DEAD_STALE = "dead_stale"  # slot value's liveness lease had expired
    TRUNCATED = "truncated"  # flip above the stored width; store masked it


@dataclass(frozen=True)
class LivenessModel:
    """Default liveness leases (cycles) per register kind and role.

    Leases are scaled to the pipeline's per-frame cost (~1M model
    cycles): GPR pointers and loop state live across whole kernel
    invocations and stay hot from frame to frame, GPR data values live
    for a large fraction of a kernel, while FPR values are short-lived
    pixel math (loaded, transformed, stored back) — the paper's
    explanation of the very high FPR masking rate (Section VI-A).
    """

    gpr_data_ttl: int = 400_000
    gpr_address_ttl: int = 1_500_000
    gpr_control_ttl: int = 1_500_000
    fpr_data_ttl: int = 40_000

    def ttl_for(self, kind: RegKind, role: Role) -> int:
        """Default lease for a binding of the given kind and role."""
        if kind is RegKind.FPR:
            return self.fpr_data_ttl
        if role is Role.ADDRESS:
            return self.gpr_address_ttl
        if role is Role.CONTROL:
            return self.gpr_control_ttl
        return self.gpr_data_ttl


def _to_raw64(value: int) -> int:
    """Two's-complement encode an int into a 64-bit raw register image."""
    return int(value) & _MASK64


def _from_raw64(raw: int) -> int:
    """Decode a 64-bit raw register image into a signed Python int."""
    raw &= _MASK64
    if raw >= 1 << 63:
        raw -= 1 << 64
    return raw


def flip_bit64(value: int, bit: int) -> int:
    """Flip ``bit`` of a signed 64-bit integer value."""
    if not 0 <= bit < REGISTER_BITS:
        raise ValueError(f"bit must be in [0, 64), got {bit}")
    return _from_raw64(_to_raw64(value) ^ (1 << bit))


def flip_float64_bit(value: float, bit: int) -> float:
    """Flip ``bit`` of the IEEE-754 binary64 representation of ``value``."""
    if not 0 <= bit < REGISTER_BITS:
        raise ValueError(f"bit must be in [0, 64), got {bit}")
    raw = np.float64(value).view(np.uint64)
    flipped = np.uint64(int(raw) ^ (1 << bit))
    return float(flipped.view(np.float64))


class Binding:
    """Base class for one architectural-register binding."""

    def __init__(
        self,
        name: str,
        kind: RegKind,
        role: Role,
        ttl: Optional[int],
    ) -> None:
        self.name = name
        self.kind = kind
        self.role = role
        self.ttl = ttl

    def effective_ttl(self, model: LivenessModel) -> int:
        """The binding's lease, falling back to the liveness model."""
        if self.ttl is not None:
            return self.ttl
        return model.ttl_for(self.kind, self.role)

    def flip(self, bit: int, rng: np.random.Generator, space: AddressSpace) -> FlipEffect:
        """Corrupt the bound program value.  May raise a machine error."""
        raise NotImplementedError


class IntCellBinding(Binding):
    """A scalar integer held in a :class:`Cell` the kernel keeps reading."""

    def __init__(
        self,
        name: str,
        cell: Cell,
        role: Role = Role.DATA,
        ttl: Optional[int] = None,
    ) -> None:
        super().__init__(name, RegKind.GPR, role, ttl)
        self.cell = cell

    def flip(self, bit: int, rng: np.random.Generator, space: AddressSpace) -> FlipEffect:
        self.cell.value = flip_bit64(int(self.cell.value), bit)
        return FlipEffect.APPLIED


class IntValueBinding(Binding):
    """A scalar integer delivered back to the kernel via a callback."""

    def __init__(
        self,
        name: str,
        value: int,
        apply: Callable[[int], None],
        role: Role = Role.DATA,
        ttl: Optional[int] = None,
    ) -> None:
        super().__init__(name, RegKind.GPR, role, ttl)
        self.value = int(value)
        self.apply = apply

    def flip(self, bit: int, rng: np.random.Generator, space: AddressSpace) -> FlipEffect:
        self.apply(flip_bit64(self.value, bit))
        return FlipEffect.APPLIED


class FloatValueBinding(Binding):
    """A scalar floating-point value delivered back via a callback."""

    def __init__(
        self,
        name: str,
        value: float,
        apply: Callable[[float], None],
        ttl: Optional[int] = None,
    ) -> None:
        super().__init__(name, RegKind.FPR, Role.DATA, ttl)
        self.value = float(value)
        self.apply = apply

    def flip(self, bit: int, rng: np.random.Generator, space: AddressSpace) -> FlipEffect:
        self.apply(flip_float64_bit(self.value, bit))
        return FlipEffect.APPLIED


class ArrayBinding(Binding):
    """The register that elements of ``array`` stream through.

    A flip corrupts one randomly chosen element in place.  Flips above
    the element's stored width are masked by the truncating store
    (:attr:`FlipEffect.TRUNCATED`) — e.g. a flip in bit 23 of a register
    holding an 8-bit pixel disappears when the byte is stored back.
    """

    def __init__(
        self,
        name: str,
        array: np.ndarray,
        kind: RegKind,
        role: Role = Role.DATA,
        ttl: Optional[int] = None,
    ) -> None:
        super().__init__(name, kind, role, ttl)
        if array.size == 0:
            raise ValueError(f"cannot bind empty array {name!r}")
        if not array.flags.writeable:
            raise ValueError(f"cannot bind read-only array {name!r}")
        self.array = array

    def flip(self, bit: int, rng: np.random.Generator, space: AddressSpace) -> FlipEffect:
        flat = self.array.reshape(-1)
        index = int(rng.integers(0, flat.size))
        width = self.array.dtype.itemsize * 8
        if bit >= width:
            return FlipEffect.TRUNCATED
        if self.array.dtype == np.float64:
            raw = flat[index : index + 1].view(np.uint64)
            raw ^= np.uint64(1 << bit)
        elif self.array.dtype == np.float32:
            raw = flat[index : index + 1].view(np.uint32)
            raw ^= np.uint32(1 << bit)
        elif np.issubdtype(self.array.dtype, np.integer):
            unsigned = np.dtype(f"u{self.array.dtype.itemsize}")
            raw = flat[index : index + 1].view(unsigned)
            raw ^= unsigned.type(1 << bit)
        else:
            raise TypeError(f"unsupported dtype for binding {self.name!r}: {self.array.dtype}")
        return FlipEffect.APPLIED


class AddressBinding(Binding):
    """A pointer register: base of ``array`` plus ``byte_offset``.

    A flip rewrites the pointer; the new address is resolved against the
    simulated :class:`AddressSpace`:

    * **unmapped** -> :class:`~repro.runtime.errors.SegmentationFault`
      (the overwhelmingly common case in a sparse heap),
    * **mapped, read pointer** -> the bytes at the aliased location are
      copied over the beginning of the bound array (the program reads
      the wrong memory),
    * **mapped, write pointer** (``writes=True``) -> a pattern derived
      from the corrupted address is smashed over the aliased location
      (the program writes to the wrong memory).

    A custom ``on_alias(view, offset)`` callback overrides the default
    mapped-address semantics.
    """

    #: Bytes transferred by the default wrong-read / wrong-write model.
    DEFAULT_WINDOW = 64

    def __init__(
        self,
        name: str,
        array: np.ndarray,
        byte_offset: int = 0,
        writes: bool = False,
        window: Optional[int] = None,
        on_alias: Optional[Callable[[np.ndarray, int], None]] = None,
        ttl: Optional[int] = None,
    ) -> None:
        super().__init__(name, RegKind.GPR, Role.ADDRESS, ttl)
        self.array = array
        self.byte_offset = int(byte_offset)
        self.writes = writes
        self.window = window if window is not None else min(self.DEFAULT_WINDOW, array.nbytes)
        self.on_alias = on_alias

    def flip(self, bit: int, rng: np.random.Generator, space: AddressSpace) -> FlipEffect:
        corrupted = flip_pointer(space.ensure(self.array) + self.byte_offset, bit)
        view, offset = space.byte_window(corrupted, self.window)  # may segfault
        if self.on_alias is not None:
            self.on_alias(view, offset)
            return FlipEffect.APPLIED
        if self.writes:
            pattern = np.uint8(corrupted & 0xFF)
            view[offset : offset + self.window] = pattern
        else:
            own = self.array.reshape(-1).view(np.uint8)
            span = min(self.window, own.size)
            own[:span] = view[offset : offset + span]
        return FlipEffect.APPLIED


def flip_pointer(address: int, bit: int) -> int:
    """The raw 64-bit address a pointer register holds once ``bit`` flips."""
    return _to_raw64(address) ^ (1 << bit)


def slot_for(site: str, name: str) -> int:
    """Stable hash-based slot for a binding (0..31).

    Used where no register-file state exists (diagnostics).  The live
    campaign path uses :class:`RegisterFileState`'s round-robin
    allocator instead, which covers the whole register file the way a
    compiler's register allocator does.
    """
    return zlib.crc32(f"{site}:{name}".encode()) % NUM_REGISTERS


class RegisterWindow:
    """The set of architectural registers live at one checkpoint."""

    def __init__(self, site: str) -> None:
        self.site = site
        self.bindings: list[Binding] = []

    # -- GPR bindings ---------------------------------------------------
    def gpr_cell(self, name: str, cell: Cell, role: Role = Role.DATA, ttl: int | None = None) -> None:
        """Bind an integer :class:`Cell` into a GPR slot."""
        self.bindings.append(IntCellBinding(name, cell, role=role, ttl=ttl))

    def gpr_value(
        self,
        name: str,
        value: int,
        apply: Callable[[int], None],
        role: Role = Role.DATA,
        ttl: int | None = None,
    ) -> None:
        """Bind an integer scalar with an apply callback into a GPR slot."""
        self.bindings.append(IntValueBinding(name, value, apply, role=role, ttl=ttl))

    def gpr_array(self, name: str, array: np.ndarray, ttl: int | None = None) -> None:
        """Bind an integer array's streaming register into a GPR slot."""
        if not np.issubdtype(array.dtype, np.integer):
            raise TypeError(f"gpr_array needs an integer array, got {array.dtype}")
        self.bindings.append(ArrayBinding(name, array, RegKind.GPR, ttl=ttl))

    def gpr_address(
        self,
        name: str,
        array: np.ndarray,
        byte_offset: int = 0,
        writes: bool = False,
        window: int | None = None,
        on_alias: Callable[[np.ndarray, int], None] | None = None,
        ttl: int | None = None,
    ) -> None:
        """Bind a pointer register into a GPR slot."""
        self.bindings.append(
            AddressBinding(
                name,
                array,
                byte_offset=byte_offset,
                writes=writes,
                window=window,
                on_alias=on_alias,
                ttl=ttl,
            )
        )

    # -- FPR bindings ---------------------------------------------------
    def fpr_array(self, name: str, array: np.ndarray, ttl: int | None = None) -> None:
        """Bind a floating-point array's streaming register into an FPR slot."""
        if array.dtype not in (np.float32, np.float64):
            raise TypeError(f"fpr_array needs a float array, got {array.dtype}")
        self.bindings.append(ArrayBinding(name, array, RegKind.FPR, ttl=ttl))


@dataclass
class SlotEntry:
    """The most recent binding written into one register slot."""

    binding: Binding
    site: str
    written_cycle: int


@dataclass
class SlotCensus:
    """Occupancy statistics of the register file over a run."""

    samples: int = 0
    live_by_kind_role: dict[tuple[RegKind, Role], int] = field(default_factory=dict)
    live_slots_total: int = 0

    def live_fraction(self, kind: RegKind) -> float:
        """Mean fraction of ``kind`` slots holding a live binding."""
        if self.samples == 0:
            return 0.0
        live = sum(
            count
            for (slot_kind, _role), count in self.live_by_kind_role.items()
            if slot_kind is kind
        )
        return live / (self.samples * NUM_REGISTERS)

    def role_fraction(self, kind: RegKind, role: Role) -> float:
        """Mean fraction of ``kind`` slots live with the given role."""
        if self.samples == 0:
            return 0.0
        live = self.live_by_kind_role.get((kind, role), 0)
        return live / (self.samples * NUM_REGISTERS)


class RegisterFileState:
    """Tracks what each architectural register currently holds.

    Slots are assigned round-robin per unique ``(site, name)`` in
    first-bind order — the same name always lands in the same register
    within a run (runs are deterministic up to the injection), and a
    workload with enough distinct values exercises the whole file, as a
    compiler's register allocator does.
    """

    def __init__(self) -> None:
        self._slots: dict[RegKind, list[SlotEntry | None]] = {
            RegKind.GPR: [None] * NUM_REGISTERS,
            RegKind.FPR: [None] * NUM_REGISTERS,
        }
        self._assigned: dict[tuple[RegKind, str, str], int] = {}
        self._next_slot: dict[RegKind, int] = {RegKind.GPR: 0, RegKind.FPR: 0}

    def _slot_of(self, kind: RegKind, site: str, name: str) -> int:
        key = (kind, site, name)
        slot = self._assigned.get(key)
        if slot is None:
            slot = self._next_slot[kind]
            self._next_slot[kind] = (slot + 1) % NUM_REGISTERS
            self._assigned[key] = slot
        return slot

    def write(self, binding: Binding, site: str, cycle: int) -> int:
        """Record ``binding`` as the new contents of its slot."""
        slot = self._slot_of(binding.kind, site, binding.name)
        self._slots[binding.kind][slot] = SlotEntry(binding, site, cycle)
        return slot

    def entry(self, kind: RegKind, slot: int) -> SlotEntry | None:
        """Current contents of register ``slot`` of ``kind``."""
        return self._slots[kind][slot]

    def export_state(
        self,
    ) -> tuple[
        dict[tuple[RegKind, str, str], int],
        dict[RegKind, int],
        dict[RegKind, list[SlotEntry | None]],
    ]:
        """Copies of ``(assigned, next_slot, slots)`` for snapshot tooling.

        The slot lists are shallow copies: entries still reference the
        live :class:`Binding` objects.  The fast-forward recorder keeps
        only the slot assignment; its fire log records every write, and
        a restore imports the assignment with the one slot its plan
        reads.
        """
        return (
            dict(self._assigned),
            dict(self._next_slot),
            {kind: list(slots) for kind, slots in self._slots.items()},
        )

    def import_state(
        self,
        assigned: dict[tuple[RegKind, str, str], int],
        next_slot: dict[RegKind, int],
        slots: dict[RegKind, list[SlotEntry | None]],
    ) -> None:
        """Install a previously exported register-file state.

        Restoring the slot-assignment map and round-robin cursor along
        with the slot contents is what keeps a fast-forwarded run's
        register allocation bit-identical to a full run: every suffix
        binding must land in exactly the slot it would have landed in
        had the prefix executed for real.
        """
        self._assigned = dict(assigned)
        self._next_slot = dict(next_slot)
        self._slots = {kind: list(entries) for kind, entries in slots.items()}

    def sample_census(self, census: SlotCensus, cycle: int, model: LivenessModel) -> None:
        """Accumulate one occupancy sample into ``census``."""
        census.samples += 1
        for kind, slots in self._slots.items():
            for entry in slots:
                if entry is None:
                    continue
                age = cycle - entry.written_cycle
                if age > entry.binding.effective_ttl(model):
                    continue
                key = (kind, entry.binding.role)
                census.live_by_kind_role[key] = census.live_by_kind_role.get(key, 0) + 1
                census.live_slots_total += 1
