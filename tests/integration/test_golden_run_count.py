"""One golden execution per campaign workload.

A campaign needs a workload's golden output, its cycle count, its
profile, its snapshot tape and (when probed) its stage signature.  All
of them come from the one tape-capture run, so on a cold cache every
campaign entry point executes the clean pipeline exactly once per
(input, config) per process.  Clean executions are counted by wrapping
``run_vs`` at every binding that calls it and keeping the calls whose
context carries no :class:`FaultInjector`.
"""

from __future__ import annotations

import collections

import pytest

import repro.cli
from repro import telemetry
from repro.analysis import experiments, hot
from repro.analysis.experiments import TINY, fig10_resiliency
from repro.cli import main
from repro.faultinject import fastforward
from repro.faultinject.injector import FaultInjector
from repro.observe import events
from repro.summarize import golden, pipeline
from repro.summarize.golden import clear_golden_cache, golden_cache_stats
from repro.video import synthetic


@pytest.fixture()
def clean_runs(monkeypatch):
    """Count clean VS executions per (input, config) from a cold cache.

    Yields ``(runs, registry)``: the counter and the telemetry registry
    holding the ``golden.*`` counters of the same executions.
    """
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    runs: collections.Counter = collections.Counter()
    real = pipeline.run_vs

    def counting(stream, config, ctx, *args, **kwargs):
        if not isinstance(ctx.injector, FaultInjector):
            runs[(stream.name, config.name)] += 1
        return real(stream, config, ctx, *args, **kwargs)

    # The defining module (the workload spec imports it lazily) and
    # every module-level binding: golden run, capture, workload closures.
    for module in (pipeline, golden, fastforward, repro.cli, experiments, hot):
        monkeypatch.setattr(module, "run_vs", counting)
    clear_golden_cache()
    tracer = telemetry.Tracer()
    previous = events.current()
    events.install(events.EventBus([tracer]))
    try:
        yield runs, tracer.registry
    finally:
        events.restore(previous)


def _assert_one_run_each(runs, registry, expected_workloads):
    assert dict(runs) == dict.fromkeys(expected_workloads, 1)
    executions = registry.counter("golden.cache_compute") + registry.counter(
        "golden.tape_capture"
    )
    assert executions == sum(runs.values())
    assert golden_cache_stats().computes == sum(runs.values())


@pytest.mark.parametrize("probe", [False, True], ids=["unprobed", "probed"])
def test_cli_campaign_runs_the_golden_once(clean_runs, probe, capsys):
    runs, registry = clean_runs
    argv = ["campaign", "--frames", "12", "-n", "8", "--workers", "1", "--quiet"]
    assert main(argv + (["--probe"] if probe else [])) == 0
    _assert_one_run_each(runs, registry, {("input2", "VS")})


def test_cli_protect_runs_the_golden_once(clean_runs, capsys):
    """``repro protect`` fast-forwards like ``repro campaign``; its report
    is the one full executions from cycle 0 printed."""
    runs, registry = clean_runs
    assert main(["protect", "--frames", "24", "-n", "60", "--seed", "3"]) == 0
    _assert_one_run_each(runs, registry, {("input2", "VS")})
    fast_forwarded = registry.counter("campaign.fastforward.hits") + registry.counter(
        "campaign.fastforward.predicted"
    )
    assert fast_forwarded == 60
    assert capsys.readouterr().out == (
        "symptom detectors catch 82% of harmful outcomes\n"
        "SDCs: 4 total, 4 tolerable at ED<=10 (100%)\n"
        "protected scopes: none\n"
        "modelled runtime overhead: 0.5% (vs 100% for full duplication)\n"
    )


@pytest.mark.parametrize("command", ["campaign", "protect"])
def test_cli_renders_its_input_once(clean_runs, monkeypatch, command, capsys):
    """The CLI takes its stream from the process's input cache, where the
    campaign's workload spec rebuilds it: one ``make_input`` per workload."""
    renders: collections.Counter = collections.Counter()
    real = synthetic.make_input

    def counting(which, *args, **kwargs):
        renders[which] += 1
        return real(which, *args, **kwargs)

    for module in (synthetic, repro.cli):
        monkeypatch.setattr(module, "make_input", counting)
    monkeypatch.setattr(synthetic, "_INPUT_CACHE", {})
    argv = [command, "--frames", "12", "-n", "8"]
    if command == "campaign":
        argv += ["--workers", "1", "--quiet"]
    assert main(argv) == 0
    assert renders == {"input2": 1}


def test_fig10_runs_each_golden_once(clean_runs):
    runs, registry = clean_runs
    fig10_resiliency(TINY, workers=1)
    _assert_one_run_each(runs, registry, {("input1", "VS"), ("input2", "VS")})
