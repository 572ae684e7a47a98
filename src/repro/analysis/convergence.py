"""Injection-count sufficiency analysis (paper Fig. 9a).

The paper estimates the minimum number of error injections by watching
the outcome-rate trend curves and finding the *knee* — the point after
which the rates change only trivially (they conclude 1000 injections).
The adaptive stratified planner (:mod:`repro.faultinject.sampling`)
replaces eyeballing the knee with a per-stratum Wilson-CI width test; the
width helper lives here with the rest of the sufficiency machinery.
"""

from __future__ import annotations

import numpy as np

from repro.faultinject.outcomes import Outcome, RunningRates, wilson_interval


def knee_point(running: RunningRates, tolerance: float = 0.02) -> int | None:
    """Smallest injection count after which every rate stays settled.

    A campaign is *settled* at n when, for every outcome class, the
    running rate never deviates from its final value by more than
    ``tolerance`` (absolute) for any m >= n.  Returns the injection
    count at the knee, or ``None`` if the campaign never settles.
    """
    if not running.checkpoints:
        return None
    counts = np.array(running.checkpoints)
    settled_from = 0
    for outcome in Outcome:
        series = np.array(running.rates[outcome.value])
        final = series[-1]
        deviating = np.abs(series - final) > tolerance
        if np.any(deviating):
            last_bad = int(np.nonzero(deviating)[0][-1])
            settled_from = max(settled_from, last_bad + 1)
    if settled_from >= len(counts):
        return None
    return int(counts[settled_from])


def coverage_uniformity(histogram: np.ndarray) -> float:
    """Coefficient of variation of an injection histogram (Fig. 9b).

    Near-zero means the random error sites are spread uniformly across
    registers (or bits).
    """
    hist = np.asarray(histogram, dtype=np.float64)
    mean = hist.mean()
    if mean == 0:
        return 0.0
    return float(hist.std() / mean)


def wilson_width(successes: int, total: int, z: float = 1.96) -> float:
    """Width of the Wilson score CI for a binomial rate.

    The convergence-stopping criterion of the stratified planner: a
    rate is *resolved* once this width drops below the target.  With no
    samples nothing is resolved, so ``total == 0`` returns the maximal
    width 1.0 (note :func:`~repro.faultinject.outcomes.wilson_interval`
    itself degenerates to ``(0, 0)`` there — correct for a point
    estimate, wrong for an uncertainty measure).
    """
    if total == 0:
        return 1.0
    low, high = wilson_interval(successes, total, z)
    return high - low
