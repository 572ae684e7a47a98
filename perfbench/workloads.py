"""The benchmark's workloads.

Each workload has a cold set-up (timed as ``setup_s``), a *unit* — one
closed-loop iteration that yields a result a researcher would wait for —
and an oracle that checks outputs by a path that does not share the
measured one.  Oracles run after the timed phase and never count
toward it.  Probes, the observe bus, stratified sampling and the
``--no-fast-forward``/``--no-boundary-batch`` escape hatches stay off:
every workload runs the default path users run.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

from repro.analysis.experiments import QUICK, input_stream, vs_workload
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.journal import serialize_result
from repro.faultinject.monitor import FaultMonitor
from repro.faultinject.parallel import VSWorkloadSpec, fast_forward_for
from repro.faultinject.registers import RegKind
from repro.forensics import query
from repro.forensics.store import CampaignStore
from repro.forensics.synth import synthesize_corpus
from repro.summarize import golden as golden_mod
from repro.summarize.approximations import config_for

#: Experiment scale of every workload's inputs.
SCALE = QUICK


def derive_seeds(*key: int, count: int = 1) -> list[int]:
    """Independent 32-bit seeds from a tuple of integers."""
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(count)]


def same_result(a, b) -> bool:
    """Byte-for-byte equality of two injection results' serialized form."""
    return json.dumps(serialize_result(a), sort_keys=True) == json.dumps(
        serialize_result(b), sort_keys=True
    )


class Workload:
    """One workload: ``setup`` once, ``unit`` in a closed loop, ``check`` after."""

    def __init__(self, seed: int, session: int, tmp: Path, recorder=None) -> None:
        self.seed = seed
        self.session = session
        self.tmp = tmp
        self.recorder = recorder
        #: Cost profiles of golden runs, for the Fig. 8 reconciliation.
        self.profiles: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, k: int) -> int:
        """Run iteration ``k``; returns the work items it completed."""
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        """Oracle checks: ``(checked, disagreements)``."""
        raise NotImplementedError

    def operations(self, items: int) -> int:
        """Operations the timed units attempted (the base of ``failed_frac``)."""
        return items

    def extras(self) -> dict:
        """Workload-specific raw measurements for the run summary."""
        return {}


class VSCampaign(Workload):
    """Fig. 10's input1/VS cell: a serial GPR and FPR campaign per unit.

    Both campaigns keep a checkpoint journal, as a long campaign would:
    with a journal, plans run as boundary groups through
    ``execute_plans_parallel`` (in-process, one worker), and each group
    is appended to the journal before it counts.

    Campaign seeds depend on the session index only, not on the workload
    seed (which picks the oracle's plan) nor on the unit index: every
    unit of a session repeats the same two campaigns.  Per-injection
    cost is heavy-tailed — plans before the first frame boundary run in
    full, SDC runs execute their whole suffix — so seed-dependent plan
    draws alone moved the injection rate by 40% (interquartile range
    over ten seeds), and with per-unit draws the number of units that
    fit the budget still changed which plans the median saw.  With fixed
    campaigns per session, only the code and the host move the figures.
    """

    #: Injections per campaign; a unit is one GPR plus one FPR campaign.
    N_INJECTIONS = 10

    def setup(self) -> None:
        self.stream = input_stream("input1", SCALE)
        self.config = config_for("VS")
        self.golden = golden_mod.golden_run(self.stream, self.config)
        self.profiles.append(self.golden.profile)
        self.spec = VSWorkloadSpec.for_stream(self.stream, self.config)
        self.workload = vs_workload(self.stream, self.config)
        # The snapshot tape, captured as the first campaign would.
        fast_forward_for(self.spec, CampaignConfig(n_injections=1, kind=RegKind.GPR))
        self.first_unit: list = []

    def unit(self, k: int) -> int:
        gpr_seed, fpr_seed = derive_seeds(self.session, count=2)
        done = 0
        for kind, seed in ((RegKind.GPR, gpr_seed), (RegKind.FPR, fpr_seed)):
            journal = self.tmp / f"journal-{k}-{kind.value}.jsonl"
            campaign = run_campaign(
                self.workload,
                self.golden.output,
                self.golden.total_cycles,
                CampaignConfig(
                    n_injections=self.N_INJECTIONS,
                    kind=kind,
                    seed=seed,
                    keep_sdc_outputs=False,
                    workers=1,
                    quiet=True,
                ),
                spec=self.spec,
                journal_path=journal,
            )
            if self.recorder is not None:
                self.recorder.add("faultinject.journal.bytes", journal.stat().st_size)
            journal.unlink()
            done += campaign.counts.total
            if k == 0:
                self.first_unit.append(campaign)
        return done

    def check(self) -> tuple[int, int]:
        # One plan per session, from the GPR campaign in even sessions and
        # the FPR one in odd sessions: a full run costs about a golden run.
        campaign = self.first_unit[self.session % 2]
        monitor = FaultMonitor(
            self.workload,
            self.golden.output,
            self.golden.total_cycles,
            keep_sdc_outputs=False,
        )
        pick = np.random.default_rng(derive_seeds(self.seed, campaign.config.seed))
        index = int(pick.integers(len(campaign.results)))
        rng = np.random.default_rng((campaign.config.seed + 1) * 1_000_003 + index)
        full = monitor.run_injected(campaign.results[index].plan, rng)
        return 1, int(not same_result(full, campaign.results[index]))


#: The four slicing-query shapes the paper's figures need; the same
#: shapes ``benchmarks/test_bench_store.py`` tracks.
TRACKED_QUERIES = (
    query.StoreQuery(group_by=("outcome",)),
    query.StoreQuery(filters={"outcome": ("sdc",)}, group_by=("stage",)),
    query.StoreQuery(
        filters={"outcome": ("sdc", "crash")}, group_by=("register_class", "bit_octet")
    ),
    query.StoreQuery(filters={"outcome": ("crash",)}, group_by=("kind", "crash_kind")),
)


class StoreCorpus(Workload):
    """Ingest a synthetic corpus one put at a time, querying after each put.

    Puts, queries and gets are timed on the process's CPU clock, as the
    units are (see ``session.py``), so a put's fsync wait is not counted.
    """

    N_RECORDS = 40
    N_INJECTIONS = 120
    ORACLE_GETS = 5

    def setup(self) -> None:
        (corpus_seed,) = derive_seeds(self.seed)
        self.corpus = synthesize_corpus(
            self.N_RECORDS, seed=corpus_seed % 1_000_000, n_injections=self.N_INJECTIONS
        )
        self.put_s: list[float] = []
        #: Injection rows per second of each put.
        self.put_rate: list[float] = []
        self.query_s: list[float] = []
        self.get_s: list[float] = []

    def unit(self, k: int) -> int:
        root = self.tmp / f"store-{k}"
        pick = np.random.default_rng(derive_seeds(self.seed, self.session, k))
        ids = []
        with CampaignStore(root) as store:
            for record in self.corpus:
                start = time.process_time()
                ids.append(store.put(record))
                self.put_s.append(time.process_time() - start)
                self.put_rate.append(len(record["injections"]) / self.put_s[-1])
                for shape in TRACKED_QUERIES:
                    start = time.process_time()
                    query.index_query(store, shape)
                    self.query_s.append(time.process_time() - start)
                cid = ids[int(pick.integers(len(ids)))]
                start = time.process_time()
                store.get(cid)
                self.get_s.append(time.process_time() - start)
        if k > 0:
            shutil.rmtree(root)
        return sum(len(record["injections"]) for record in self.corpus)

    def check(self) -> tuple[int, int]:
        checked = bad = 0
        pick = np.random.default_rng(derive_seeds(self.seed, 9))
        with CampaignStore(self.tmp / "store-0") as store:
            shapes = list(TRACKED_QUERIES) + [
                query.StoreQuery(filters={"kind": ("fpr",)}, group_by=("outcome", "fired")),
                query.StoreQuery(filters={"bit_octet": (0, 7)}, group_by=("last_stage",)),
            ]
            for shape in shapes:
                checked += 1
                bad += query.index_query(store, shape) != query.scan_query(store, shape)
            ids = store.ids()
            for index in pick.choice(len(ids), self.ORACLE_GETS, replace=False):
                checked += 1
                bad += store.get(ids[int(index)]) != self.corpus[int(index)]
        return checked, bad

    def operations(self, items: int) -> int:
        return len(self.put_s) + len(self.query_s) + len(self.get_s)

    def extras(self) -> dict:
        return {"put_rate": self.put_rate, "query_s": self.query_s}


WORKLOADS = {
    "vs-campaign": VSCampaign,
    "store-corpus": StoreCorpus,
}
