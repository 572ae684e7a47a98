"""Outcome taxonomy and campaign statistics.

The paper classifies every error-injection run into Mask, Crash, SDC or
Hang (Section V-A), and further splits crashes into segmentation faults
(92%) and aborts (8%) (Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.faultinject.watchdog import WatchdogExpired
from repro.runtime.errors import (
    HangDetected,
    InsufficientMatchesError,
    InternalAbortError,
    SegmentationFault,
)


class Outcome(Enum):
    """Primary outcome of one error-injection run."""

    MASKED = "mask"
    SDC = "sdc"
    CRASH = "crash"
    HANG = "hang"


class CrashKind(Enum):
    """Sub-classification of Crash outcomes."""

    SEGV = "segv"  # memory access violation
    ABORT = "abort"  # library-internal constraint violation


class HangKind(Enum):
    """Sub-classification of Hang outcomes.

    ``SIMULATED`` hangs come from the cycle-budget watchdog
    (:class:`~repro.runtime.errors.HangDetected`): the workload kept
    running the simulated machine past its cycle budget.  ``WATCHDOG``
    hangs are *real* wall-clock stalls caught by the monitor-thread
    deadline (:mod:`repro.faultinject.watchdog`): the workload stopped
    making progress entirely, so the cycle watchdog could never fire.
    Both count as the paper's Hang outcome; the split is diagnostic.
    """

    SIMULATED = "simulated"
    WATCHDOG = "watchdog"


#: Exception types that model a memory access violation (SIGSEGV).
_SEGV_TYPES = (SegmentationFault, IndexError, KeyError)

#: Exception types that model the binary trapping on corrupted state
#: (abort signals raised by the application or its libraries).
_ABORT_TYPES = (
    InternalAbortError,
    InsufficientMatchesError,  # only if it ever escapes the pipeline
    ValueError,
    TypeError,
    ZeroDivisionError,
    OverflowError,
    FloatingPointError,
    MemoryError,
    np.linalg.LinAlgError,
)


def classify_exception(exc: BaseException) -> tuple[Outcome, CrashKind | None]:
    """Map an exception from an injected run to its outcome class.

    Unrecognized exception types are *not* silently classified — they
    indicate a library bug and are re-raised by the monitor.
    """
    if isinstance(exc, (HangDetected, WatchdogExpired)):
        return Outcome.HANG, None
    if isinstance(exc, _SEGV_TYPES):
        return Outcome.CRASH, CrashKind.SEGV
    if isinstance(exc, _ABORT_TYPES):
        return Outcome.CRASH, CrashKind.ABORT
    raise exc


def hang_kind_for(exc: BaseException) -> HangKind | None:
    """The Hang sub-kind for an exception, or None for non-hangs."""
    if isinstance(exc, WatchdogExpired):
        return HangKind.WATCHDOG
    if isinstance(exc, HangDetected):
        return HangKind.SIMULATED
    return None


@dataclass
class OutcomeCounts:
    """Tallies of every outcome class."""

    masked: int = 0
    sdc: int = 0
    crash_segv: int = 0
    crash_abort: int = 0
    hang: int = 0

    @property
    def crash(self) -> int:
        """All crashes (segv + abort)."""
        return self.crash_segv + self.crash_abort

    @property
    def total(self) -> int:
        """Total classified runs."""
        return self.masked + self.sdc + self.crash + self.hang

    def add(self, outcome: Outcome, crash_kind: CrashKind | None = None) -> None:
        """Record one run's outcome."""
        if outcome is Outcome.MASKED:
            self.masked += 1
        elif outcome is Outcome.SDC:
            self.sdc += 1
        elif outcome is Outcome.HANG:
            self.hang += 1
        elif outcome is Outcome.CRASH:
            if crash_kind is CrashKind.ABORT:
                self.crash_abort += 1
            else:
                self.crash_segv += 1
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown outcome {outcome!r}")

    def rate(self, outcome: Outcome) -> float:
        """Fraction of runs with the given outcome (0 when no runs)."""
        if self.total == 0:
            return 0.0
        counts = {
            Outcome.MASKED: self.masked,
            Outcome.SDC: self.sdc,
            Outcome.CRASH: self.crash,
            Outcome.HANG: self.hang,
        }
        return counts[outcome] / self.total

    def rates(self) -> dict[str, float]:
        """All rates keyed by outcome value name."""
        return {outcome.value: self.rate(outcome) for outcome in Outcome}

    def segv_fraction_of_crashes(self) -> float:
        """Share of crashes that are segmentation faults."""
        if self.crash == 0:
            return 0.0
        return self.crash_segv / self.crash


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial rate.

    With no samples there is no rate to bound: ``total == 0`` returns
    the degenerate ``(0.0, 0.0)`` (matching the 0.0 point estimate used
    throughout, e.g. :meth:`OutcomeCounts.rate`) rather than dividing
    by zero.  ``z == 0`` likewise degenerates cleanly to ``(p, p)``.
    """
    if total == 0:
        return 0.0, 0.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    margin = z * np.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - margin), min(1.0, center + margin)


@dataclass
class RunningRates:
    """Outcome rates as a function of injection count (paper Fig. 9a)."""

    checkpoints: list[int] = field(default_factory=list)
    rates: dict[str, list[float]] = field(
        default_factory=lambda: {o.value: [] for o in Outcome}
    )

    @classmethod
    def from_outcomes(cls, outcomes: list[Outcome]) -> "RunningRates":
        """The rates after every run of ``outcomes``, in one NumPy pass.

        Each rate is an exact cumulative count divided by an exact run
        count in IEEE double, so the floats are those :meth:`record`
        appends run by run.
        """
        order = list(Outcome)
        code = {outcome: k for k, outcome in enumerate(order)}
        codes = np.fromiter((code[o] for o in outcomes), dtype=np.int64, count=len(outcomes))
        totals = np.arange(1, len(codes) + 1)
        cumulative = np.cumsum(codes[:, None] == np.arange(len(order)), axis=0)
        rates = cumulative / totals[:, None]
        return cls(
            checkpoints=totals.tolist(),
            rates={outcome.value: rates[:, k].tolist() for k, outcome in enumerate(order)},
        )

    def record(self, counts: OutcomeCounts) -> None:
        """Append the current rates at the current injection count."""
        self.checkpoints.append(counts.total)
        for outcome in Outcome:
            self.rates[outcome.value].append(counts.rate(outcome))

    def series(self, outcome: Outcome) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(n_injections, rate)`` arrays for one outcome."""
        return np.array(self.checkpoints), np.array(self.rates[outcome.value])
