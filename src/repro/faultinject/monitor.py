"""The Fault Monitor: run one injected execution and classify its outcome.

The analog of AFI's second module (paper Section V-B): continue the
program after the injection, capture a potential hang or crash, and —
when the program finishes normally — invoke the result-checking
procedure that compares the output with the golden output to decide
between Masked and SDC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import telemetry
from repro.faultinject.injector import FaultInjector, InjectionPlan, InjectionRecord
from repro.faultinject.outcomes import (
    CrashKind,
    HangKind,
    Outcome,
    classify_exception,
    hang_kind_for,
)
from repro.faultinject.registers import LivenessModel
from repro.faultinject.watchdog import WatchdogPolicy, call_with_deadline
from repro.forensics import probes
from repro.forensics.divergence import DivergenceRecord, diff_against_golden
from repro.imaging.image import images_equal
from repro.runtime.context import ExecutionContext

#: Default watchdog budget as a multiple of the golden run's cycles.
DEFAULT_HANG_FACTOR = 6.0

#: A workload maps a context to its output image.
Workload = Callable[[ExecutionContext], np.ndarray]


@dataclass
class InjectionResult:
    """Everything known about one injected run."""

    plan: InjectionPlan
    record: InjectionRecord
    outcome: Outcome
    crash_kind: CrashKind | None = None
    hang_kind: HangKind | None = None  # set for HANG outcomes only
    output: np.ndarray | None = None  # the corrupted output for SDC runs
    cycles: int = 0
    #: Stage-level divergence attribution; set only for probed runs
    #: (``FaultMonitor(probe=True)`` / ``CampaignConfig(probe=True)``).
    divergence: DivergenceRecord | None = None

    @property
    def is_sdc(self) -> bool:
        """True for Silent Data Corruption outcomes."""
        return self.outcome is Outcome.SDC


class FaultMonitor:
    """Runs workloads under injection and classifies the outcomes."""

    def __init__(
        self,
        workload: Workload,
        golden_output: np.ndarray,
        golden_cycles: int,
        hang_factor: float = DEFAULT_HANG_FACTOR,
        liveness: Optional[LivenessModel] = None,
        site_filter: Optional[str] = None,
        keep_sdc_outputs: bool = True,
        watchdog: Optional[WatchdogPolicy] = None,
        probe: bool = False,
        fast_forward=None,
    ) -> None:
        if golden_cycles <= 0:
            raise ValueError(f"golden_cycles must be positive, got {golden_cycles}")
        self.workload = workload
        self.golden_output = golden_output
        self.golden_cycles = golden_cycles
        self.watchdog_cycles = int(golden_cycles * hang_factor)
        self.liveness = liveness
        self.site_filter = site_filter
        self.keep_sdc_outputs = keep_sdc_outputs
        self.watchdog = watchdog
        self.probe = probe
        #: Optional :class:`repro.faultinject.fastforward.FastForward`
        #: handle.  When set, runs whose plan cycle lies past a golden
        #: frame boundary resume through that boundary's shared
        #: :class:`~repro.faultinject.fastforward.BoundaryFanOut` and
        #: execute only the suffix — bit-identical to the full execution.
        #: Without one every run executes in full: the reference the
        #: differential tests compare campaigns against.
        self.fast_forward = fast_forward

    def run_injected(self, plan: InjectionPlan, rng: np.random.Generator) -> InjectionResult:
        """Execute one injected run and classify the result."""
        result = self._run_injected(plan, rng)
        if telemetry.enabled():
            # Telemetry only observes — counters never feed back into
            # classification, so traced and untraced campaigns agree.
            telemetry.counter_inc("campaign.runs")
            telemetry.counter_inc(f"campaign.outcome.{result.outcome.value}")
            if result.hang_kind is HangKind.WATCHDOG:
                telemetry.counter_inc("campaign.watchdog_hangs")
            if result.record.fired:
                telemetry.counter_inc("campaign.fired")
            if result.divergence is not None and result.divergence.first_divergence:
                telemetry.counter_inc(
                    f"campaign.divergence.{result.divergence.first_divergence}"
                )
                if result.divergence.absorbed:
                    telemetry.counter_inc("campaign.divergence.absorbed")
        return result

    def golden_signature(self) -> dict[str, tuple[int, ...]]:
        """Per-stage golden checksum sequences for this workload.

        Captured once per (process, workload) by re-running the workload
        on a clean context under a probe — the golden run is
        deterministic, so the re-run reproduces it exactly (checked
        against ``golden_output`` as cheap insurance).  Cached through
        :func:`repro.forensics.probes.golden_signature_for`.
        """
        return probes.golden_signature_for(self.workload, self._capture_golden_signature)

    def _capture_golden_signature(self) -> dict[str, tuple[int, ...]]:
        probe = probes.StageProbe()
        with probes.capturing(probe):
            output = self.workload(ExecutionContext())
        if not images_equal(output, self.golden_output):
            raise ValueError(
                "probed golden capture does not reproduce the golden output; "
                "the workload is not deterministic or the golden reference "
                "belongs to a different workload"
            )
        return probe.signature()

    def _run_injected(self, plan: InjectionPlan, rng: np.random.Generator) -> InjectionResult:
        probe: probes.StageProbe | None = None
        golden_signature: dict[str, tuple[int, ...]] | None = None
        if self.probe:
            # Capture (or fetch) the golden signature before arming the
            # injector, so the reference run is never probed while a
            # fault is pending.
            golden_signature = self.golden_signature()
            probe = probes.StageProbe()
        injector = FaultInjector(
            plan,
            rng=rng,
            liveness=self.liveness,
            site_filter=self.site_filter,
        )
        ctx = ExecutionContext(injector=injector, watchdog_cycles=self.watchdog_cycles)
        soft_deadline = self.watchdog.soft_deadline_s if self.watchdog is not None else None
        divergence = (
            lambda: diff_against_golden(golden_signature, probe) if probe is not None else None
        )
        snapshot_index = (
            self.fast_forward.boundary_index_for(plan.target_cycle)
            if self.fast_forward is not None
            else None
        )
        if telemetry.enabled() and self.fast_forward is not None:
            if snapshot_index is not None:
                telemetry.counter_inc("campaign.fastforward.hits")
                telemetry.counter_inc(
                    "campaign.fastforward.skipped_cycles",
                    self.fast_forward.tape.boundaries[snapshot_index].cycles,
                )
            else:
                telemetry.counter_inc("campaign.fastforward.full_runs")
        if snapshot_index is not None:
            fanout = self.fast_forward.fanout(snapshot_index)
            runner = lambda: fanout.resume_member(ctx)  # noqa: E731
        else:
            runner = lambda: self.workload(ctx)  # noqa: E731
        try:
            # With no soft deadline this is a direct call (no thread);
            # with one, the workload runs on a watched daemon thread and
            # a wall-clock stall surfaces as WatchdogExpired -> a real
            # HANG, where the cycle watchdog could never fire.
            with probes.capturing(probe):
                output = call_with_deadline(runner, soft_deadline)
        except Exception as exc:  # noqa: BLE001 - classified below, bugs re-raised
            outcome, crash_kind = classify_exception(exc)
            return InjectionResult(
                plan=plan,
                record=injector.record,
                outcome=outcome,
                crash_kind=crash_kind,
                hang_kind=hang_kind_for(exc),
                cycles=ctx.cycles,
                divergence=divergence(),
            )

        if images_equal(output, self.golden_output):
            return InjectionResult(
                plan=plan,
                record=injector.record,
                outcome=Outcome.MASKED,
                cycles=ctx.cycles,
                divergence=divergence(),
            )
        return InjectionResult(
            plan=plan,
            record=injector.record,
            outcome=Outcome.SDC,
            output=output.copy() if self.keep_sdc_outputs else None,
            cycles=ctx.cycles,
            divergence=divergence(),
        )
