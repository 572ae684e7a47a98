"""Subprocess helper for the kill-mid-campaign resume test.

Runs a small deterministic toy campaign with a checkpoint journal and
writes the final outcome counts as JSON.  The parent test launches this
script, SIGKILLs it mid-run (the injections are artificially slowed so
at least one — but not every — chunk is journaled before the kill),
then reruns it with ``resume`` and compares against an uninterrupted
``reference`` run.

Usage::

    python -m tests.faultinject._resume_worker run      JOURNAL OUT [delay_s]
    python -m tests.faultinject._resume_worker resume   JOURNAL OUT
    python -m tests.faultinject._resume_worker reference JOURNAL_IGNORED OUT

The ``strat-run`` / ``strat-resume`` / ``strat-reference`` modes run
the same protocol with an adaptive stratified campaign instead of a
uniform one.

When the ``REPRO_STATUS`` environment variable names a path, the run is
wrapped in ``observe_campaign`` exactly as the CLI would wrap it — the
kill-resume test uses that to prove the status snapshot is crash-safe
(always a complete, parseable JSON document, even around a SIGKILL).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.registers import RegKind
from repro.observe.session import observe_campaign, resolve_status_path
from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload

N_INJECTIONS = 24
SEED = 5


def _campaign_json(campaign) -> dict:
    payload = {
        "counts": {
            "masked": campaign.counts.masked,
            "sdc": campaign.counts.sdc,
            "crash_segv": campaign.counts.crash_segv,
            "crash_abort": campaign.counts.crash_abort,
            "hang": campaign.counts.hang,
        },
        "running_checkpoints": campaign.running.checkpoints,
        "running_rates": campaign.running.rates,
        "register_histogram": campaign.register_histogram.tolist(),
        "bit_histogram": campaign.bit_histogram.tolist(),
        "outcomes": [result.outcome.value for result in campaign.results],
        "cycles": [result.cycles for result in campaign.results],
    }
    if campaign.sampling is not None:
        payload["sampling"] = campaign.sampling.to_dict()
    return payload


def _config(stratified: bool) -> CampaignConfig:
    if stratified:
        # Coarse enough to converge in a handful of rounds on the toy
        # workload, with a hard budget so the helper can never run away.
        return CampaignConfig(
            n_injections=1,
            kind=RegKind.GPR,
            seed=SEED,
            workers=1,
            sampling="stratified",
            ci_width=0.3,
            round_size=4,
            max_injections=400,
        )
    return CampaignConfig(n_injections=N_INJECTIONS, kind=RegKind.GPR, seed=SEED, workers=1)


def main(argv: list[str]) -> int:
    mode, journal, out = argv[0], argv[1], argv[2]
    delay_s = float(argv[3]) if len(argv) > 3 else 0.0
    state = ToyWorkloadSpec().build()
    golden, golden_cycles = state.golden_output, state.golden_cycles

    def workload(ctx):
        if delay_s:
            # Slow each injection down so the parent can kill this
            # process after the first journaled chunk but before the end.
            time.sleep(delay_s)
        return toy_workload(ctx)

    stratified = mode.startswith("strat-")
    action = mode.removeprefix("strat-")
    config = _config(stratified)
    status_path = resolve_status_path(None)
    observe_cm = (
        observe_campaign(status_path)
        if status_path is not None
        else contextlib.nullcontext()
    )
    with observe_cm:
        campaign = run_campaign(
            workload,
            golden,
            golden_cycles,
            config,
            journal_path=None if action == "reference" else journal,
            resume=action == "resume",
        )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(_campaign_json(campaign), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
