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
from repro.observe import events as observe_events
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


def golden_signature(
    workload: Workload, golden_output: np.ndarray, fast_forward=None
) -> dict[str, tuple[int, ...]]:
    """Per-stage golden checksum sequences of ``workload``.

    A tape-backed workload replays the probe stream its capture run
    recorded; the capture is the golden run, so nothing executes.  A
    tapeless one re-runs the (deterministic) workload on a clean
    context under a probe, checked against ``golden_output`` as cheap
    insurance.
    """
    probe = probes.StageProbe()
    with probes.capturing(probe):
        if fast_forward is not None:
            probes.replay_prefix(fast_forward.tape.probe_events)
        elif not images_equal(workload(ExecutionContext()), golden_output):
            raise ValueError(
                "probed golden capture does not reproduce the golden output; "
                "the workload is not deterministic or the golden reference "
                "belongs to a different workload"
            )
    return probe.signature()


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
        golden_signature: Callable[[], dict[str, tuple[int, ...]]] | None = None,
    ) -> None:
        if golden_cycles <= 0:
            raise ValueError(f"golden_cycles must be positive, got {golden_cycles}")
        self.workload = workload
        self.golden_output = golden_output
        self.golden_cycles = golden_cycles
        self.watchdog_cycles = int(golden_cycles * hang_factor)
        self.liveness = liveness if liveness is not None else LivenessModel()
        self.site_filter = site_filter
        self.keep_sdc_outputs = keep_sdc_outputs
        self.watchdog = watchdog
        self.probe = probe
        #: Optional :class:`repro.faultinject.fastforward.FastForward`
        #: handle.  When set, a run whose fire the golden fire log
        #: already decides (:meth:`decide`) is classified without
        #: executing; every other run resumes from the last golden
        #: restore point before its fire checkpoint through that point's
        #: :class:`~repro.faultinject.fastforward.BoundaryFanOut` and
        #: executes only the suffix — bit-identical to the full
        #: execution.  Without one every run executes in full: the
        #: reference the differential tests compare campaigns against.
        self.fast_forward = fast_forward
        self._signature_source = golden_signature
        self._golden_signature: dict[str, tuple[int, ...]] | None = None

    def run_injected(self, plan: InjectionPlan, rng: np.random.Generator) -> InjectionResult:
        """Classify one injected run: decided from the tape, else executed."""
        result = self.decide(plan)
        if result is None:
            result = _counted(self._execute(plan, rng))
        return result

    def decide(self, plan: InjectionPlan) -> InjectionResult | None:
        """The result of ``plan`` when the golden fire log decides it, else None.

        A decided run (see ``FastForward.predict``: a dead register, no
        fire at all, a pointer flip that segfaults at the fire, a flip
        into dead state or into the frame loop's own cells) is the
        golden run up to its end: the whole of it for a masked run, up
        to the fault for a crash, up to the loop exit for an early exit,
        which then stitches its own output.  Nothing executes, and the
        run's RNG is never drawn from, so a campaign may decide its
        plans wherever it dispatches them.
        """
        ff = self.fast_forward
        if ff is None:
            return None
        predicted = ff.predict(plan, self.liveness, self.site_filter)
        if predicted is None:
            return None
        if observe_events.enabled():
            telemetry.counter_inc("campaign.fastforward.predicted")
            telemetry.counter_inc(f"campaign.fastforward.predicted.{predicted.reason}")
            telemetry.counter_inc("campaign.fastforward.skipped_cycles", predicted.cycles)
        probe = self._probe()
        with probes.capturing(probe):
            probes.replay_prefix(ff.tape.probe_events[: predicted.probe_count])
            if predicted.output is not None:
                probes.record("stitch", predicted.output)
        keep = predicted.outcome is Outcome.SDC and self.keep_sdc_outputs
        return _counted(
            InjectionResult(
                plan=plan,
                record=predicted.record,
                outcome=predicted.outcome,
                crash_kind=predicted.crash_kind,
                output=predicted.output if keep else None,
                cycles=predicted.cycles,
                divergence=self._divergence(probe),
            )
        )

    def golden_signature(self) -> dict[str, tuple[int, ...]]:
        """Per-stage golden checksum sequences for this workload.

        Taken from the ``golden_signature`` source the monitor was built
        with (a worker state shares one per process), else computed by
        :func:`golden_signature` on first use and kept for this monitor.
        """
        if self._golden_signature is None:
            source = self._signature_source
            self._golden_signature = (
                source()
                if source is not None
                else golden_signature(self.workload, self.golden_output, self.fast_forward)
            )
        return self._golden_signature

    def _probe(self) -> probes.StageProbe | None:
        """A fresh stage probe for one run; None when probes are off.

        The golden signature is captured (or fetched) first, so the
        reference run is never probed while a fault is pending.
        """
        if not self.probe:
            return None
        self.golden_signature()
        return probes.StageProbe()

    def _divergence(self, probe: probes.StageProbe | None) -> DivergenceRecord | None:
        return diff_against_golden(self.golden_signature(), probe) if probe is not None else None

    def _execute(self, plan: InjectionPlan, rng: np.random.Generator) -> InjectionResult:
        """Execute one injected run the fire log does not decide."""
        probe = self._probe()
        ff = self.fast_forward
        injector = FaultInjector(
            plan,
            rng=rng,
            liveness=self.liveness,
            site_filter=self.site_filter,
        )
        ctx = ExecutionContext(injector=injector, watchdog_cycles=self.watchdog_cycles)
        soft_deadline = self.watchdog.soft_deadline_s if self.watchdog is not None else None
        if ff is not None:
            index = ff.resume_index(plan.target_cycle, self.site_filter)
            if observe_events.enabled():
                telemetry.counter_inc("campaign.fastforward.hits")
                telemetry.counter_inc(
                    "campaign.fastforward.skipped_cycles", ff.tape.boundaries[index].cycles
                )
            fanout = ff.fanout(index)
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
                divergence=self._divergence(probe),
            )

        if images_equal(output, self.golden_output):
            return InjectionResult(
                plan=plan,
                record=injector.record,
                outcome=Outcome.MASKED,
                cycles=ctx.cycles,
                divergence=self._divergence(probe),
            )
        return InjectionResult(
            plan=plan,
            record=injector.record,
            outcome=Outcome.SDC,
            output=output.copy() if self.keep_sdc_outputs else None,
            cycles=ctx.cycles,
            divergence=self._divergence(probe),
        )


def _counted(result: InjectionResult) -> InjectionResult:
    """Count one classified run on the observe bus; returns ``result``.

    Counters only observe — they never feed back into classification,
    so traced and untraced campaigns agree.
    """
    if observe_events.enabled():
        telemetry.counter_inc("campaign.runs")
        telemetry.counter_inc(f"campaign.outcome.{result.outcome.value}")
        if result.record.fired:
            telemetry.counter_inc("campaign.fired")
        if result.divergence is not None and result.divergence.first_divergence:
            telemetry.counter_inc(f"campaign.divergence.{result.divergence.first_divergence}")
            if result.divergence.absorbed:
                telemetry.counter_inc("campaign.divergence.absorbed")
    return result
