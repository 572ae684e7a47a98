"""Deterministic synthetic campaign records for benches and fixtures.

Store-scale work (perfbench's ``store-corpus`` workload, the query-engine
property suite, the committed v1 fixture store CI migrates) needs
thousands of schema-valid injection rows without paying for thousands
of real pipeline executions.  :func:`synthesize_record` fabricates a
record that is *shape-identical* to :func:`repro.forensics.store.
build_record` output — internally consistent counts, histograms,
divergence attribution, and SDC quality — from a seeded
``numpy.random.default_rng`` stream, so the same seed always yields the
same bytes (and therefore the same content-addressed id) on every
platform.

Synthetic records are clearly labelled (``synthetic`` default label
prefix) and carry outcome rates in the neighbourhood of the paper's
Fig. 10 so reports over them render plausibly.
"""

from __future__ import annotations

import numpy as np

from repro.forensics.divergence import NONE_KEY
from repro.forensics.probes import STAGES
from repro.forensics.store import STORE_SCHEMA_VERSION

#: Outcome draw weights: mask-heavy, like the paper's GPR campaigns.
_OUTCOMES = ("mask", "sdc", "crash", "hang")
_OUTCOME_WEIGHTS = (0.62, 0.20, 0.12, 0.06)

#: Crash split (Section VI-A: ~92% segv).
_SEGV_SHARE = 0.9


def _counts_dict(outcomes: list[str], crash_kinds: list[str]) -> dict:
    masked = outcomes.count("mask")
    sdc = outcomes.count("sdc")
    hang = outcomes.count("hang")
    segv = crash_kinds.count("segv")
    abort = crash_kinds.count("abort")
    total = len(outcomes)
    crash = segv + abort
    return {
        "total": total,
        "masked": masked,
        "sdc": sdc,
        "crash_segv": segv,
        "crash_abort": abort,
        "hang": hang,
        "rates": {
            "mask": masked / total if total else 0.0,
            "sdc": sdc / total if total else 0.0,
            "crash": crash / total if total else 0.0,
            "hang": hang / total if total else 0.0,
        },
    }


def synthesize_record(
    seed: int,
    n_injections: int = 120,
    label: str | None = None,
    kind: str = "gpr",
    probe: bool = True,
    stratified: bool = False,
) -> dict:
    """One deterministic, schema-valid synthetic campaign record."""
    rng = np.random.default_rng(seed)
    label = label if label is not None else f"synthetic-{seed}"

    injections = []
    outcomes: list[str] = []
    crash_kinds: list[str] = []
    register_histogram = [0] * 32
    bit_histogram = [0] * 64
    probed = 0
    absorbed = 0
    first_by_outcome: dict[str, dict[str, int]] = {}
    last_counts: dict[str, int] = {}
    stage_diverged = {stage: 0 for stage in STAGES}
    sdc_quality = []

    for index in range(n_injections):
        register = int(rng.integers(0, 32))
        bit = int(rng.integers(0, 64))
        outcome = _OUTCOMES[int(rng.choice(len(_OUTCOMES), p=_OUTCOME_WEIGHTS))]
        crash_kind = ""
        if outcome == "crash":
            crash_kind = "segv" if rng.random() < _SEGV_SHARE else "abort"
            crash_kinds.append(crash_kind)
        fired = 1 if rng.random() < 0.92 else 0
        first = ""
        last = ""
        diverged_bits = -1
        if probe:
            probed += 1
            diverged_bits = 0
            if outcome == "mask":
                # Most masked faults never visibly diverge; a few are
                # absorbed after a transient wiggle.
                if rng.random() < 0.2:
                    stage_index = int(rng.integers(0, len(STAGES) - 1))
                    first = STAGES[stage_index]
                    last = STAGES[int(rng.integers(stage_index, len(STAGES)))]
                    diverged_bits = int(rng.integers(1, 40))
                    absorbed += 1
            else:
                stage_index = int(rng.integers(0, len(STAGES)))
                first = STAGES[stage_index]
                last = STAGES[int(rng.integers(stage_index, len(STAGES)))]
                diverged_bits = int(rng.integers(1, 4000))
            first_key = first or NONE_KEY
            last_key = last or NONE_KEY
            first_by_outcome.setdefault(first_key, {})
            first_by_outcome[first_key][outcome] = (
                first_by_outcome[first_key].get(outcome, 0) + 1
            )
            last_counts[last_key] = last_counts.get(last_key, 0) + 1
            if first:
                for stage in STAGES[STAGES.index(first) : STAGES.index(last) + 1]:
                    stage_diverged[stage] += 1
        if outcome == "sdc":
            sdc_quality.append(
                {
                    "index": index,
                    "relative_l2": round(float(rng.uniform(0.001, 0.6)), 6),
                    "ed": int(rng.integers(0, 40)),
                }
            )
        outcomes.append(outcome)
        register_histogram[register] += 1
        bit_histogram[bit] += 1
        injections.append(
            [register, bit, outcome, crash_kind, fired, first, last, diverged_bits]
        )

    def _stage_order(table: dict) -> dict:
        ordered = {}
        for key in (*STAGES, NONE_KEY):
            if key in table:
                ordered[key] = table[key]
        return ordered

    fired_rows = [row for row in injections if row[4]]
    fired_outcomes = [row[2] for row in fired_rows]
    fired_crash_kinds = [row[3] for row in fired_rows if row[3]]

    record = {
        "schema": STORE_SCHEMA_VERSION,
        "label": label,
        "fingerprint": {
            "n_injections": n_injections,
            "kind": kind,
            "seed": seed,
            "hang_factor": 10.0,
            "site_filter": None,
            "keep_sdc_outputs": True,
            "watchdog_soft_deadline_s": None,
            "probe": probe,
            "fast_forward": True,
            "boundary_batch": True,
            "sampling": "stratified" if stratified else "uniform",
        },
        "counts": _counts_dict(outcomes, crash_kinds),
        "fired_counts": _counts_dict(fired_outcomes, fired_crash_kinds),
        "register_histogram": register_histogram,
        "bit_histogram": bit_histogram,
        "injections": injections,
        "divergence": {
            "probed": probed,
            "unprobed": n_injections - probed,
            "absorbed": absorbed,
            "first_divergence": _stage_order(
                {key: dict(sorted(value.items())) for key, value in first_by_outcome.items()}
            ),
            "last_stage": _stage_order(last_counts),
            "stage_diverged": stage_diverged,
        },
        "sdc_quality": sdc_quality,
    }
    if stratified:
        record["sampling"] = _sampling_block(record, rng)
    return record


def _sampling_block(record: dict, rng: np.random.Generator) -> dict:
    """A minimal, internally consistent stratified-sampling block."""
    counts = record["counts"]
    total = counts["total"]
    raw_rates = {
        "mask": counts["rates"]["mask"],
        "sdc": counts["rates"]["sdc"],
        "crash": counts["rates"]["crash"],
        "hang": counts["rates"]["hang"],
    }
    # Mild reweighting jitter, renormalized so the rates stay a simplex.
    weights = {key: max(rate + float(rng.uniform(-0.01, 0.01)), 0.0) for key, rate in raw_rates.items()}
    norm = sum(weights.values()) or 1.0
    ht_rates = {key: round(value / norm, 9) for key, value in weights.items()}
    strata = (
        ("imaging.warp", "address"), ("imaging.warp", "data"),
        ("vision.orb", "control"), ("vision.orb", "data"),
    )
    cells = []
    for index, (stage, role) in enumerate(strata):
        draws = total // 4 + (1 if index < total % 4 else 0)
        cells.append(
            {
                "cell": index,
                "stage": stage,
                "role": role,
                "weight": 0.25,
                "draws": draws,
                "counts": {
                    "total": draws,
                    "masked": draws,
                    "sdc": 0,
                    "crash_segv": 0,
                    "crash_abort": 0,
                    "hang": 0,
                },
                "max_ci_width": round(float(rng.uniform(0.01, 0.05)), 6),
                "converged_round": int(rng.integers(1, 9)),
            }
        )
    return {
        "stratification": {
            "kind": record["fingerprint"]["kind"],
            "golden_cycles": 1000,
            "dead": 0,
            "dead_mass": 0.0,
            "strata": [
                {"stage": stage, "role": role, "mass": 8000, "rows": 8}
                for stage, role in strata
            ],
        },
        "cells": cells,
        "cells_converged": len(cells),
        "ci_width": 0.02,
        "rounds": int(rng.integers(4, 12)),
        "draws": total,
        "uniform_equivalent_draws": total + int(rng.integers(0, total // 2 + 1)),
        "draws_saved": int(rng.integers(0, total // 2 + 1)),
        "budget_exhausted": False,
        "unsampled_mass": 0.0,
        "raw_rates": raw_rates,
        "ht_rates": ht_rates,
    }


def synthesize_corpus(
    n_records: int,
    seed: int = 0,
    n_injections: int = 120,
    probe: bool = True,
    stratified_every: int | None = None,
) -> list[dict]:
    """A list of distinct synthetic records (seeds ``seed + i``).

    ``stratified_every`` makes every k-th record stratified, to exercise
    mixed-mode corpora.
    """
    records = []
    for index in range(n_records):
        records.append(
            synthesize_record(
                seed=seed + index,
                n_injections=n_injections,
                kind="gpr" if index % 2 == 0 else "fpr",
                probe=probe,
                stratified=bool(stratified_every) and index % stratified_every == 0,
            )
        )
    return records
