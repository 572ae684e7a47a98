"""Perf-tracking harness for the campaign engine.

Times one fixed fault-injection campaign in-process and on a worker
pool, under each observation layer, and against a full-execution
reference, then appends a machine-readable entry to ``BENCH_campaign.json`` at the repo
root, so every PR leaves a perf trajectory future PRs can compare
against.

Run via ``make bench-campaign`` or directly::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_campaign.py -q -s

Knobs (environment):

* ``REPRO_BENCH_SCALE``   — ``tiny`` (default) / ``quick`` / ``medium``.
* ``REPRO_BENCH_WORKERS`` — parallel worker count (default 4).
* ``REPRO_BENCH_OUT``     — output JSON path (default ``BENCH_campaign.json``).
* ``REPRO_BENCH_CI_WIDTH`` — Wilson-CI convergence target for the
  stratified stage (default 0.25; the acceptance entry is recorded at
  0.02, which needs thousands of draws per stratum and is far too slow
  for routine runs).
* ``REPRO_BENCH_ROUND_SIZE`` — per-stratum draws per stratified round
  (default 64).

Speedup is bounded by the cores the machine actually grants
(``cpu_count`` is recorded with every entry for exactly that reason).
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

from repro import telemetry
from repro.analysis.experiments import _SCALES, input_stream, vs_workload
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.parallel import VSWorkloadSpec
from repro.faultinject.registers import RegKind
from repro.summarize.approximations import config_for
from repro.summarize.golden import clear_golden_cache, golden_run

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The fixed campaign cell being tracked: Fig. 10's (input1, VS, GPR).
BENCH_SEED = 10


def _bench_scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "tiny").lower()
    return _SCALES[name]


def _bench_workers() -> int:
    return max(2, int(os.environ.get("REPRO_BENCH_WORKERS", "4")))


def _out_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_OUT", REPO_ROOT / "BENCH_campaign.json"))


def _bench_ci_width() -> float:
    return float(os.environ.get("REPRO_BENCH_CI_WIDTH", "0.25"))


def _bench_round_size() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_ROUND_SIZE", "64")))


def _time_campaign(
    stream,
    config,
    golden,
    n_injections,
    workers,
    spec,
    journal_path=None,
    probe=False,
):
    start = time.perf_counter()
    campaign = run_campaign(
        vs_workload(stream, config),
        golden.output,
        golden.total_cycles,
        CampaignConfig(
            n_injections=n_injections,
            kind=RegKind.GPR,
            seed=BENCH_SEED,
            keep_sdc_outputs=False,
            workers=workers,
            probe=probe,
        ),
        spec=spec,
        journal_path=journal_path,
    )
    elapsed = time.perf_counter() - start
    return elapsed, campaign


def append_entry(path: Path, entry: dict) -> None:
    """Append one timing entry to the JSON trajectory file."""
    entries = []
    if path.exists():
        entries = json.loads(path.read_text())
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=2) + "\n")


def test_campaign_perf_trajectory(tmp_path):
    """Time the tracked campaign serial vs parallel and record both."""
    scale = _bench_scale()
    workers = _bench_workers()
    config = config_for("VS")
    stream = input_stream("input1", scale)
    golden = golden_run(stream, config)
    spec = VSWorkloadSpec.for_stream(stream, config)
    assert spec is not None

    # Every stage below runs the production path (boundary fan-out) with
    # the same spec, so each ratio isolates one variable: pool scaling,
    # the journal, tracing, observation or probes.  An untimed warm-up
    # captures the snapshot tape and materializes the boundary restores
    # first, so no timed stage pays for them.
    _time_campaign(stream, config, golden, scale.injections, workers=1, spec=spec)
    serial_s, serial = _time_campaign(
        stream, config, golden, scale.injections, workers=1, spec=spec
    )
    parallel_s, parallel = _time_campaign(
        stream, config, golden, scale.injections, workers=workers, spec=spec
    )

    # The crash-safe checkpoint journal: the durability tax (one fsync'd
    # JSONL append per dispatch group).
    journaled_s, journaled = _time_campaign(
        stream,
        config,
        golden,
        scale.injections,
        workers=1,
        spec=spec,
        journal_path=tmp_path / "bench-journal.jsonl",
    )

    # Stage-level tracing on: the overhead of an enabled telemetry layer
    # (disabled overhead is a single global check per stage and is not
    # separately measurable here).
    telemetry.enable()
    try:
        traced_s, traced = _time_campaign(
            stream, config, golden, scale.injections, workers=1, spec=spec
        )
    finally:
        telemetry.disable()

    # Full live observation — event bus, status snapshots (one atomic
    # rewrite per event) and flight recorder: the observer tax.  The
    # contract says observation only *watches*, so this must stay within
    # the journal-style noise band.
    from repro.observe.session import observe_campaign

    with observe_campaign(tmp_path / "bench-status.json"):
        observed_s, observed = _time_campaign(
            stream, config, golden, scale.injections, workers=1, spec=spec
        )

    # Divergence probes on: the forensics tax, one extra probed golden
    # run plus per-stage checksumming on every injected run.
    probed_s, probed = _time_campaign(
        stream, config, golden, scale.injections, workers=1, spec=spec, probe=True
    )

    # The one spec-less run: without a spec there is no snapshot tape,
    # so every injection executes in full.  It is the reference the
    # fan-out speedup is measured against.
    full_s, full = _time_campaign(
        stream, config, golden, scale.injections, workers=1, spec=None
    )

    # Adaptive stratified campaign to a matched per-stratum Wilson-CI
    # width.  Uniform sampling cannot stop per stratum: to guarantee
    # the same width in the slowest-converging stratum it must keep
    # drawing until that stratum's expected share of a uniform stream
    # reaches the same count, i.e. ``max_s ceil(draws_s / W_s)`` total
    # draws.  The stratified planner never draws the dead mass and
    # stops converged strata, so ``draws_saved`` is the injections it
    # did not have to run.
    ci_width = _bench_ci_width()
    strat_start = time.perf_counter()
    stratified = run_campaign(
        vs_workload(stream, config),
        golden.output,
        golden.total_cycles,
        CampaignConfig(
            n_injections=1,
            kind=RegKind.GPR,
            seed=BENCH_SEED,
            keep_sdc_outputs=False,
            workers=1,
            sampling="stratified",
            ci_width=ci_width,
            round_size=_bench_round_size(),
        ),
        spec=spec,
    )
    stratified_s = time.perf_counter() - strat_start
    sampling = stratified.sampling
    assert sampling is not None
    assert not sampling.budget_exhausted
    assert sampling.cells_converged == len(sampling.cells)
    # The whole point of adaptive stopping: fewer injections than a
    # uniform campaign needs for the same per-cell CI guarantee.
    assert sampling.draws_saved() > 0, (
        f"stratified planner saved no draws at ci_width={ci_width}: "
        f"{sampling.total_draws} drawn vs "
        f"{sampling.uniform_equivalent_draws()} uniform-equivalent"
    )
    per_injection_s = stratified_s / sampling.total_draws if sampling.total_draws else 0.0

    # Untimed telemetry-enabled run on a cold cache: harvest the
    # fast-forward and fan-out counters that explain *why* the timings
    # above moved (how many runs fast-forwarded, how many groups, how
    # many restores were shared, how many golden tails synthesized).
    clear_golden_cache()
    tracer = telemetry.enable()
    try:
        _time_campaign(stream, config, golden, scale.injections, workers=1, spec=spec)
        counters = dict(tracer.registry.snapshot()["counters"])
    finally:
        telemetry.disable()

    # The perf harness doubles as an equivalence check.
    assert serial.counts == parallel.counts
    assert serial.running == parallel.running
    assert serial.counts == traced.counts
    assert serial.running == traced.running
    assert serial.counts == journaled.counts
    assert serial.running == journaled.running
    assert serial.counts == observed.counts
    assert serial.running == observed.running
    assert serial.counts == probed.counts
    assert serial.running == probed.running
    assert serial.counts == full.counts
    assert serial.running == full.running

    # Journal overhead must stay within noise at default chunk sizes:
    # a handful of fsync'd appends against seconds of injection work.
    # The bound is deliberately loose (50% + 250ms absolute slack) so a
    # noisy CI box cannot flake it, while a regression that fsyncs per
    # *injection* instead of per chunk still fails loudly.
    assert journaled_s <= serial_s * 1.5 + 0.25, (
        f"journal overhead out of noise band: journaled {journaled_s:.3f}s "
        f"vs serial {serial_s:.3f}s"
    )

    # Observation rewrites one small JSON file per event (a few per
    # dispatch group), so it costs a bounded constant per group — the
    # same noise band as the journal catches a
    # regression that starts doing real work on the hot path.
    assert observed_s <= serial_s * 1.5 + 0.25, (
        f"observe overhead out of noise band: observed {observed_s:.3f}s "
        f"vs serial {serial_s:.3f}s"
    )

    # Probing checksums every stage's intermediate output, so it costs
    # real work per injection — but it must stay a modest constant
    # factor (CRC32 over arrays already in cache), never blow up the
    # campaign.  2x + 500ms absorbs the one-off probed golden re-run at
    # tiny scale while still catching an accidentally quadratic probe.
    assert probed_s <= serial_s * 2.0 + 0.5, (
        f"probe overhead out of noise band: probed {probed_s:.3f}s "
        f"vs serial {serial_s:.3f}s"
    )

    # Boundary fan-out's whole reason to exist is a >4x win over full
    # execution on this tracked cell — a regression below 4x means the
    # fan-out engine stopped amortizing.
    assert serial_s > 0 and full_s / serial_s > 4.0, (
        f"fan-out speedup regressed below 4x: fan-out {serial_s:.3f}s "
        f"vs full {full_s:.3f}s ({full_s / serial_s:.2f}x)"
    )

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "figure": "fig10-cell(input1,VS,GPR)",
        "scale": scale.name,
        "n_injections": scale.injections,
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "traced_s": round(traced_s, 3),
        "journaled_s": round(journaled_s, 3),
        "observed_s": round(observed_s, 3),
        "probed_s": round(probed_s, 3),
        "full_s": round(full_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "trace_overhead": round(traced_s / serial_s - 1.0, 4) if serial_s else None,
        "journal_overhead": round(journaled_s / serial_s - 1.0, 4) if serial_s else None,
        "observe_overhead": round(observed_s / serial_s - 1.0, 4) if serial_s else None,
        "probe_overhead": round(probed_s / serial_s - 1.0, 4) if serial_s else None,
        "fanout_speedup": round(full_s / serial_s, 3) if serial_s else None,
        "fastforward": {
            "hits": counters.get("campaign.fastforward.hits", 0),
            "predicted": counters.get("campaign.fastforward.predicted", 0),
            "skipped_cycles": counters.get("campaign.fastforward.skipped_cycles", 0),
        },
        "fanout": {
            "groups": counters.get("campaign.fanout.groups", 0),
            "shared_restores": counters.get("campaign.fanout.shared_restores", 0),
            "cow_clones": counters.get("campaign.fanout.cow_clones", 0),
            "golden_tails": counters.get("campaign.fanout.golden_tail", 0),
        },
        "stratified": {
            "ci_width": ci_width,
            "dead_mass": round(sampling.stratification.dead_mass, 6),
            "round_size": _bench_round_size(),
            "stratified_s": round(stratified_s, 3),
            "draws": sampling.total_draws,
            "rounds": sampling.rounds,
            "cells": len(sampling.cells),
            "cells_converged": sampling.cells_converged,
            "uniform_equivalent_draws": sampling.uniform_equivalent_draws(),
            "draws_saved": sampling.draws_saved(),
            # Uniform wall-clock at the matched CI width, estimated from
            # the measured per-injection cost (running the uniform
            # campaign to the same guarantee would take strictly longer).
            "uniform_equivalent_s_est": round(
                per_injection_s * sampling.uniform_equivalent_draws(), 3
            ),
        },
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    append_entry(_out_path(), entry)
    print(
        f"\n[bench] {scale.name} campaign ({scale.injections} injections): "
        f"serial {serial_s:.2f}s, parallel({workers}w) {parallel_s:.2f}s, "
        f"traced {traced_s:.2f}s (+{100 * entry['trace_overhead']:.1f}%), "
        f"journaled {journaled_s:.2f}s (+{100 * entry['journal_overhead']:.1f}%), "
        f"observed {observed_s:.2f}s (+{100 * entry['observe_overhead']:.1f}%), "
        f"probed {probed_s:.2f}s (+{100 * entry['probe_overhead']:.1f}%), "
        f"full {full_s:.2f}s (fan-out {entry['fanout_speedup']}x, "
        f"{entry['fanout']['groups']} groups, "
        f"{entry['fanout']['golden_tails']} golden tails), "
        f"stratified(ci={ci_width}) {stratified_s:.2f}s "
        f"({sampling.total_draws} draws, saved {sampling.draws_saved()}), "
        f"speedup {entry['speedup']}x on {entry['cpu_count']} cpu(s) "
        f"-> {_out_path()}"
    )
