"""The fault injector: one single-bit flip per run, AFI style.

An :class:`InjectionPlan` names the error site exactly as the paper does
(Section V-B): the register kind (GPR or FPR), the register number
(0..31), the bit (0..63) and the execution cycle at which the flip
happens.  The :class:`FaultInjector` watches kernel checkpoints, keeps the
architectural register file up to date, and fires the flip at the first
checkpoint at or after the target cycle.

For the hot-function study (paper Section V-C) a ``site_filter`` restricts
firing to checkpoints whose site name starts with a given prefix, which is
AFI's "only consider injections that hit the functions of interest".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.faultinject.addrspace import AddressSpace
from repro.faultinject.registers import (
    NUM_REGISTERS,
    REGISTER_BITS,
    FlipEffect,
    LivenessModel,
    RegisterFileState,
    RegKind,
    Role,
    SlotCensus,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faultinject.registers import RegisterWindow
    from repro.runtime.context import ExecutionContext


@dataclass(frozen=True)
class InjectionPlan:
    """One planned single-bit register flip."""

    target_cycle: int
    kind: RegKind
    register: int
    bit: int

    def __post_init__(self) -> None:
        if not 0 <= self.register < NUM_REGISTERS:
            raise ValueError(f"register must be in [0, {NUM_REGISTERS}), got {self.register}")
        if not 0 <= self.bit < REGISTER_BITS:
            raise ValueError(f"bit must be in [0, {REGISTER_BITS}), got {self.bit}")
        if self.target_cycle < 0:
            raise ValueError(f"target_cycle must be >= 0, got {self.target_cycle}")


def random_plan(
    rng: np.random.Generator,
    total_cycles: int,
    kind: RegKind,
) -> InjectionPlan:
    """Draw a uniformly random error site, as the paper's AFI does."""
    if total_cycles <= 0:
        raise ValueError(f"total_cycles must be positive, got {total_cycles}")
    return InjectionPlan(
        target_cycle=int(rng.integers(0, total_cycles)),
        kind=kind,
        register=int(rng.integers(0, NUM_REGISTERS)),
        bit=int(rng.integers(0, REGISTER_BITS)),
    )


@dataclass
class InjectionRecord:
    """What actually happened when (and if) the planned flip fired."""

    plan: InjectionPlan
    fired: bool = False
    fired_cycle: int | None = None
    site: str | None = None
    binding_name: str | None = None
    role: Role | None = None
    effect: FlipEffect | None = None
    #: For site-filtered studies: True when the flip hit a register that
    #: actually belongs to the functions of interest.  Runs outside the
    #: study are still executed but excluded from its statistics.
    in_study: bool = True

    @property
    def hit_live_value(self) -> bool:
        """True when the flip corrupted live program state."""
        return self.effect is FlipEffect.APPLIED


class FaultInjector:
    """Fires one planned bit flip into the modelled register file."""

    def __init__(
        self,
        plan: InjectionPlan,
        space: Optional[AddressSpace] = None,
        rng: Optional[np.random.Generator] = None,
        liveness: Optional[LivenessModel] = None,
        site_filter: Optional[str] = None,
    ) -> None:
        self.plan = plan
        self.space = space if space is not None else AddressSpace(seed=plan.target_cycle)
        self.rng = rng if rng is not None else np.random.default_rng(plan.target_cycle)
        self.liveness = liveness if liveness is not None else LivenessModel()
        self.site_filter = site_filter
        self.regfile = RegisterFileState()
        self.record = InjectionRecord(plan)

    @property
    def observing(self) -> bool:
        """True while the injector still needs to see checkpoints."""
        return not self.record.fired

    def visit(self, ctx: "ExecutionContext", window: "RegisterWindow") -> None:
        """Checkpoint callback: update the register file, maybe fire."""
        if self.record.fired:
            return
        cycle = ctx.cycles
        for binding in window.bindings:
            backing = getattr(binding, "array", None)
            if backing is not None:
                # Map the backing memory so corrupted pointers can alias
                # it (placed lazily, when a pointer flip needs it).
                self.space.note(backing)
            self.regfile.write(binding, window.site, cycle)
        if cycle < self.plan.target_cycle:
            return
        if self.site_filter is not None and not window.site.startswith(self.site_filter):
            return
        self._fire(cycle, window.site)

    def _fire(self, cycle: int, site: str) -> None:
        record = self.record
        record.fired = True
        record.fired_cycle = cycle
        record.site = site
        entry = self.regfile.entry(self.plan.kind, self.plan.register)
        if self.site_filter is not None:
            # Attribute the hit to the functions of interest only when
            # the register actually holds one of their values.
            record.in_study = entry is not None and entry.site.startswith(self.site_filter)
        if entry is None:
            record.effect = FlipEffect.DEAD_EMPTY
            return
        record.binding_name = entry.binding.name
        record.role = entry.binding.role
        age = cycle - entry.written_cycle
        if age > entry.binding.effective_ttl(self.liveness):
            record.effect = FlipEffect.DEAD_STALE
            return
        # The flip itself may raise a simulated machine error
        # (SegmentationFault); record the effect before it propagates.
        record.effect = FlipEffect.APPLIED
        try:
            record.effect = entry.binding.flip(self.plan.bit, self.rng, self.space)
        except Exception:
            record.effect = FlipEffect.APPLIED
            raise


class CensusProbe:
    """A pseudo-injector that samples register-file occupancy.

    Used for calibrating the liveness model: run a clean workload with a
    ``CensusProbe`` as the context's injector and inspect the resulting
    :class:`SlotCensus`.
    """

    def __init__(self, liveness: Optional[LivenessModel] = None) -> None:
        self.liveness = liveness if liveness is not None else LivenessModel()
        self.regfile = RegisterFileState()
        self.census = SlotCensus()

    @property
    def observing(self) -> bool:
        """Census probes observe every checkpoint of the run."""
        return True

    def visit(self, ctx: "ExecutionContext", window: "RegisterWindow") -> None:
        """Record the window's bindings and sample slot occupancy."""
        cycle = ctx.cycles
        for binding in window.bindings:
            self.regfile.write(binding, window.site, cycle)
        self.regfile.sample_census(self.census, cycle, self.liveness)
