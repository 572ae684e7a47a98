"""Command-line interface for the repro library.

Subcommands mirror the library's main workflows::

    python -m repro.cli summarize --input input2 --out panorama.pgm
    python -m repro.cli campaign  --input input1 --kind gpr -n 200
    python -m repro.cli events    --frames 32 --out overlay.pgm
    python -m repro.cli experiment fig10 --scale tiny
    python -m repro.cli protect   --input input2 -n 200 --tolerance 10
    python -m repro.cli trace summarize trace.jsonl

``--trace PATH`` on the summarize / campaign / experiment commands
enables stage-level telemetry for the run and writes a JSONL trace file
(see ``docs/observability.md``); ``trace summarize`` renders the
stage-time table from such a file.

``campaign`` additionally takes ``--journal PATH`` (fsync'd checkpoint
journal for crash safety), ``--resume PATH`` (finish an interrupted
journaled campaign; exits 3 when interrupted by the test hook) and
``--watchdog-factor F`` (wall-clock hang deadline as a multiple of the
golden run's wall time) — see ``docs/resilience.md``.

Forensics (see ``docs/forensics.md``): ``campaign --probe`` turns on
stage-boundary divergence tracing, ``campaign --store DIR`` persists
the campaign record under a content-addressed id, and ``report``
renders stored campaigns::

    python -m repro.cli campaign --probe --store runs/ -n 200
    python -m repro.cli report list runs/
    python -m repro.cli report show runs/ <id> --format html --out r.html
    python -m repro.cli report diff runs/ <id_a> <id_b>
    python -m repro.cli report query runs/ --where outcome=sdc \
        --group-by register_class,stage

``report diff`` exits 4 when a statistically significant outcome-rate
shift is flagged, 0 when the campaigns are consistent.  ``report
query`` slices the whole corpus down to per-injection granularity
through the store's SQLite index (see ``docs/store.md``); ``repro
store migrate DIR`` converts a legacy single-log store to the sharded
v2 layout (lossless, id-stable) and ``repro store rebuild DIR``
re-derives the side index from the raw record segments.

Adaptive sampling (see ``docs/sampling.md``): ``campaign --sampling
stratified --ci-width 0.02`` stratifies draws over (register-class x
bit-octet x resume-boundary) cells and stops each cell once its Wilson
CI converges, reporting raw and Horvitz-Thompson reweighted rates.

Live observability (see ``docs/observability.md``): ``campaign
--status PATH`` maintains a crash-safe JSON status snapshot (also via
``REPRO_STATUS=PATH``), ``--serve [PORT]`` adds ``/status`` and
Prometheus ``/metrics`` HTTP endpoints, a flight recorder dumps the
recent event ring on interrupts/hangs, and ``repro watch status.json``
tails a snapshot live.  ``repro report trend <store>`` renders outcome
and performance trajectories across stored campaigns (exit 4 when the
z-gate flags a shift between adjacent campaigns).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.analysis.experiments import scale_from_env
from repro.analysis.reporting import campaign_to_dict, save_json
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.parallel import VSWorkloadSpec, default_workers
from repro.faultinject.registers import RegKind
from repro.imaging.io import save_pgm
from repro.runtime.context import ExecutionContext
from repro.summarize.approximations import ALGORITHM_FACTORIES, config_for
from repro.summarize.golden import golden_run
from repro.summarize.pipeline import run_vs
from repro.video.synthetic import make_event_input, make_input


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _strata_grid(raw: str) -> tuple[int, int, int]:
    """Parse a ``RxBxC`` stratification grid (e.g. ``4x8x8``)."""
    parts = raw.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"must be REGxBITxCYCLE (e.g. 4x8x8), got {raw!r}"
        )
    try:
        grid = tuple(int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be REGxBITxCYCLE (e.g. 4x8x8), got {raw!r}"
        ) from None
    if any(value < 1 for value in grid):
        raise argparse.ArgumentTypeError(f"grid sizes must be >= 1, got {raw!r}")
    return grid


@contextlib.contextmanager
def _maybe_traced(args: argparse.Namespace):
    """Enable telemetry for the command when ``--trace PATH`` was given.

    The trace (span events plus the final metrics snapshot) is written
    to the requested path when the command body finishes — also on
    error, so a crashed run still leaves its partial trace behind.
    """
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        yield
        return
    was_enabled = telemetry.enabled()
    tracer = telemetry.enable()
    try:
        yield
    finally:
        from repro.telemetry.export import write_trace

        write_trace(trace_path, tracer, meta={"argv": sys.argv[1:]})
        if not was_enabled:
            telemetry.disable()
        print(f"trace written to {trace_path}")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="enable stage-level telemetry and write a JSONL trace here",
    )


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input", default="input2", choices=["input1", "input2"], help="synthetic input"
    )
    parser.add_argument("--frames", type=int, default=48, help="frames to generate")
    parser.add_argument(
        "--algorithm",
        default="VS",
        choices=list(ALGORITHM_FACTORIES),
        help="VS variant to run",
    )


def cmd_summarize(args: argparse.Namespace) -> int:
    """Run coverage summarization and save the panorama."""
    with _maybe_traced(args):
        stream = make_input(args.input, n_frames=args.frames)
        config = config_for(args.algorithm)
        ctx = ExecutionContext()
        result = run_vs(stream, config, ctx)
        print(
            f"{config.name} on {args.input}: stitched={result.frames_stitched} "
            f"discarded={result.frames_discarded} minis={result.num_minis} "
            f"cycles={ctx.cycles / 1e6:.1f}M"
        )
        if args.out:
            save_pgm(args.out, result.panorama)
            print(f"panorama written to {args.out}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a fault-injection campaign and print the resiliency profile."""
    import time

    from repro.faultinject.journal import CampaignInterrupted
    from repro.faultinject.watchdog import WatchdogPolicy
    from repro.observe.session import observe_campaign, resolve_status_path

    # Resolve the worker count before the (expensive) golden run, so a
    # malformed REPRO_WORKERS fails fast with a clear error.
    workers = args.workers if args.workers else default_workers()
    # Likewise a malformed --heartbeat-interval / REPRO_HEARTBEAT_INTERVAL.
    telemetry.resolve_heartbeat_interval(args.heartbeat_interval)
    journal_path = args.resume if args.resume is not None else args.journal
    status_path = resolve_status_path(
        str(args.status) if args.status is not None else None
    )
    observing = status_path is not None or args.serve is not None
    with _maybe_traced(args):
        stream = make_input(args.input, n_frames=args.frames)
        config = config_for(args.algorithm)
        golden_start = time.perf_counter()
        golden = golden_run(stream, config)
        golden_wall_s = time.perf_counter() - golden_start

        def workload(ctx: ExecutionContext) -> np.ndarray:
            return run_vs(stream, config, ctx).panorama

        watchdog = (
            WatchdogPolicy.from_golden(golden_wall_s, soft_factor=args.watchdog_factor)
            if args.watchdog_factor is not None
            else None
        )
        kind = RegKind.GPR if args.kind.lower() == "gpr" else RegKind.FPR
        campaign_config = CampaignConfig(
            n_injections=args.n,
            kind=kind,
            seed=args.seed,
            # Stored records score SDC quality, which needs the
            # corrupted outputs kept until build_record runs.
            keep_sdc_outputs=args.store is not None,
            workers=workers,
            watchdog=watchdog,
            probe=args.probe,
            sampling=args.sampling,
            ci_width=args.ci_width,
            round_size=args.round_size,
            max_injections=args.max_injections,
            strata=args.strata,
            heartbeat_interval=args.heartbeat_interval,
            quiet=args.quiet,
        )
        observe_cm = (
            observe_campaign(
                status_path,
                serve=args.serve is not None,
                serve_port=args.serve or 0,
                flight_path=args.flight_recorder,
            )
            if observing
            else contextlib.nullcontext()
        )
        try:
            with observe_cm as session:
                if session is not None and session.server is not None:
                    print(f"observatory serving at {session.server.url}")
                campaign = run_campaign(
                    workload,
                    golden.output,
                    golden.total_cycles,
                    campaign_config,
                    spec=VSWorkloadSpec.for_stream(stream, config),
                    journal_path=journal_path,
                    resume=args.resume is not None,
                )
        except CampaignInterrupted as interrupted:
            print(f"campaign interrupted: {interrupted}")
            if observing and session is not None and session.flight_dumped is not None:
                print(f"flight-recorder dump at {session.flight_dumped}")
            return 3
        if observing and session is not None:
            if status_path is not None:
                print(f"status snapshot at {status_path}")
            if session.flight_dumped is not None:
                print(f"flight-recorder dump at {session.flight_dumped}")
        counts = campaign.counts
        n_done = counts.total if campaign.sampling is not None else args.n
        print(
            f"{config.name} on {args.input}, {n_done} {kind.value.upper()} injections "
            f"({workers} worker{'s' if workers != 1 else ''}):"
        )
        if campaign.sampling is not None:
            sampling = campaign.sampling
            ht = sampling.ht_rates()
            for name, rate in sampling.raw_rates().items():
                print(f"  {name:6s} {rate:7.2%} raw | {ht[name]:7.2%} reweighted")
            print(
                f"  stratified: {sampling.rounds} rounds, "
                f"{sampling.cells_converged}/{len(sampling.cells)} cells converged, "
                f"{sampling.total_draws} draws "
                f"(uniform-equivalent {sampling.uniform_equivalent_draws()}, "
                f"saved {sampling.draws_saved()})"
            )
            if sampling.budget_exhausted:
                print("  warning: draw budget exhausted before full convergence")
        else:
            for name, rate in counts.rates().items():
                print(f"  {name:6s} {rate:7.2%}")
        if counts.crash:
            print(f"  crashes: {counts.crash_segv} segv / {counts.crash_abort} abort")
        if args.probe:
            from repro.forensics.divergence import summarize_divergence

            divergence = summarize_divergence(campaign.results)
            print(
                f"  divergence: {divergence['probed']} probed, "
                f"{divergence['absorbed']} absorbed before the stitch"
            )
        if args.out:
            save_json(args.out, campaign_to_dict(campaign))
            print(f"full record written to {args.out}")
        if args.store:
            from repro.forensics.store import CampaignStore

            cid = CampaignStore(args.store).put_campaign(
                campaign, golden_output=golden.output, label=args.label
            )
            print(f"stored campaign {cid} in {args.store}")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """Run the full coverage + event summarization workflow."""
    from repro.events.pipeline import run_full_summarization

    event_input = make_event_input(n_frames=args.frames, n_objects=args.objects)
    summary = run_full_summarization(
        event_input.stream, config_for(args.algorithm), ExecutionContext()
    )
    print(
        f"coverage: stitched={summary.coverage.frames_stitched} "
        f"minis={summary.coverage.num_minis}; tracks={summary.num_tracks}"
    )
    for track in summary.tracks:
        print(
            f"  track {track.track_id}: {len(track.points)} observations, "
            f"frames {track.points[0].frame_index}-{track.points[-1].frame_index}"
        )
    if args.out and summary.overlay is not None:
        save_pgm(args.out, summary.overlay)
        print(f"overlay written to {args.out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one paper experiment by figure name."""
    import os

    from repro.analysis import experiments

    os.environ.setdefault("REPRO_SCALE", args.scale)
    scale = scale_from_env(default=args.scale)
    entry_points = {
        "fig05": experiments.fig05_perf_energy,
        "fig06": experiments.fig06_output_quality,
        "fig08": experiments.fig08_profile,
        "fig09": experiments.fig09_coverage,
        "fig10": experiments.fig10_resiliency,
        "fig11a": experiments.fig11a_approx_resiliency,
        "fig11b": experiments.fig11b_hot_function,
        "fig12": experiments.fig12_sdc_quality,
        "fig13": experiments.fig13_diff_visualization,
    }
    #: Campaign-running figures accept a worker count; the rest are
    #: golden-run-only and always execute in-process.
    campaign_figures = {"fig09", "fig10", "fig11a", "fig11b", "fig12"}
    with _maybe_traced(args):
        if args.figure in campaign_figures:
            workers = args.workers if args.workers else default_workers()
            result = entry_points[args.figure](scale, workers=workers)
        else:
            result = entry_points[args.figure](scale)
        print(f"{args.figure} at scale {scale.name}: done")
        # Structured results print compactly via their dataclass reprs.
        if isinstance(result, list):
            for item in result:
                print(f"  {item}")
        else:
            print(f"  {result}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a JSONL trace file written by ``--trace`` / REPRO_TRACE."""
    from repro.telemetry.export import render_summary, summarize_trace

    if args.trace_action == "summarize":
        summary = summarize_trace(args.path)
        print(render_summary(summary))
        return 0
    raise AssertionError(f"unknown trace action {args.trace_action!r}")


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail a live campaign status snapshot (see ``campaign --status``)."""
    import json
    import time

    from repro.observe.status import read_status, render_status

    last_rendered = None
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )
    while True:
        try:
            payload = read_status(args.path)
        except FileNotFoundError:
            payload = None
        except json.JSONDecodeError:
            # Unreachable with the atomic writer, but a foreign file
            # should surface as a wait, not a stack trace.
            payload = None
        if payload is not None:
            rendered = render_status(payload)
            if rendered != last_rendered:
                print(rendered)
                print()
                last_rendered = rendered
            if payload.get("state") in ("finished", "interrupted"):
                return 0
        elif args.once:
            print(f"no status snapshot at {args.path}")
            return 1
        if args.once:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            print(f"watch timed out after {args.timeout:g}s")
            return 1
        time.sleep(args.interval)


def cmd_report(args: argparse.Namespace) -> int:
    """Render reports and regression diffs over stored campaigns."""
    from repro.forensics.report import diff_records, render_diff, render_report
    from repro.forensics.store import CampaignStore

    store = CampaignStore(args.store)
    if args.report_action == "list":
        summaries = store.summaries()
        if not summaries:
            print(f"no campaigns stored in {args.store}")
            return 0
        for cid, summary in summaries.items():
            label = summary.get("label") or "-"
            mode = summary.get("sampling", "uniform")
            print(
                f"{cid}  {summary['kind']:3s} n={summary['n_injections']:<6d} "
                f"seed={summary['seed']:<6d} sdc={summary['sdc']:<5d} "
                f"probe={'y' if summary['probe'] else 'n'} {mode:10s}  {label}"
            )
        return 0
    if args.report_action == "show":
        text = render_report(store.get(args.id), fmt=args.format, cid=args.id)
        if args.out:
            Path(args.out).write_text(text)
            print(f"report written to {args.out}")
        else:
            print(text, end="")
        return 0
    if args.report_action == "diff":
        diff = diff_records(store.get(args.id_a), store.get(args.id_b))
        text = render_diff(diff, fmt=args.format, cid_a=args.id_a, cid_b=args.id_b)
        if args.out:
            Path(args.out).write_text(text)
            print(f"diff written to {args.out}")
        else:
            print(text, end="")
        return 4 if diff["flagged"] else 0
    if args.report_action == "trend":
        from repro.observe.trend import build_trend, render_trend

        trend = build_trend(store, bench_path=args.bench)
        text = render_trend(trend, fmt=args.format)
        if args.out:
            Path(args.out).write_text(text)
            print(f"trend dashboard written to {args.out}")
        else:
            print(text, end="")
        return 4 if trend["flagged"] else 0
    if args.report_action == "query":
        from repro.forensics.query import (
            QueryError,
            StoreQuery,
            query_sections,
            run_query,
        )
        from repro.forensics.report import render_sections

        try:
            query = StoreQuery.from_options(where=args.where, group_by=args.group_by)
        except QueryError as exc:
            print(f"repro report query: {exc}", file=sys.stderr)
            return 2
        result = run_query(store, query)
        text = render_sections(
            f"Store query: {args.store}", query_sections(result), fmt=args.format
        )
        if args.out:
            Path(args.out).write_text(text)
            print(f"query result written to {args.out}")
        else:
            print(text, end="")
        return 0
    raise AssertionError(f"unknown report action {args.report_action!r}")


def cmd_store(args: argparse.Namespace) -> int:
    """Maintain a result store: v1->v2 migration and index rebuilds."""
    from repro.forensics.store import StoreError, migrate_store, rebuild_store

    if args.store_action == "migrate":
        try:
            report = migrate_store(args.store)
        except StoreError as exc:
            print(f"repro store migrate: {exc}", file=sys.stderr)
            return 2
        print(
            f"migrated {report.records} record(s) in {args.store} to the v2 "
            f"layout: {report.segments} segment(s), ids unchanged"
        )
        for backup in report.backups:
            print(f"  v1 file kept as {backup}")
        return 0
    if args.store_action == "rebuild":
        info = rebuild_store(args.store)
        print(
            f"rebuilt the v{info['layout']} side index of {args.store}: "
            f"{info['records']} record(s)"
        )
        return 0
    raise AssertionError(f"unknown store action {args.store_action!r}")


def cmd_protect(args: argparse.Namespace) -> int:
    """Plan selective protection from a fresh campaign."""
    from repro.protection import plan_protection, symptom_coverage
    from repro.quality import compare_outputs

    stream = make_input(args.input, n_frames=args.frames)
    config = config_for(args.algorithm)
    golden = golden_run(stream, config)

    def workload(ctx: ExecutionContext) -> np.ndarray:
        return run_vs(stream, config, ctx).panorama

    campaign = run_campaign(
        workload,
        golden.output,
        golden.total_cycles,
        CampaignConfig(n_injections=args.n, kind=RegKind.GPR, seed=args.seed),
    )
    qualities = {
        index: compare_outputs(golden.output, result.output)
        for index, result in enumerate(campaign.results)
        if result.is_sdc and result.output is not None
    }
    coverage = symptom_coverage(campaign)
    plan = plan_protection(campaign, qualities, golden.profile, ed_tolerance=args.tolerance)
    cls = plan.classification
    print(f"symptom detectors catch {coverage.detector_coverage:.0%} of harmful outcomes")
    print(
        f"SDCs: {cls.sdc_total} total, {cls.tolerable_sdc} tolerable at ED<={args.tolerance} "
        f"({cls.tolerable_fraction:.0%})"
    )
    print(f"protected scopes: {sorted(plan.protected_scopes) or 'none'}")
    print(f"modelled runtime overhead: {plan.runtime_overhead:.1%} "
          f"(vs 100% for full duplication)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_sum = subparsers.add_parser("summarize", help="run coverage summarization")
    _add_input_arguments(p_sum)
    p_sum.add_argument("--out", type=Path, default=None, help="output PGM path")
    _add_trace_argument(p_sum)
    p_sum.set_defaults(func=cmd_summarize)

    p_camp = subparsers.add_parser("campaign", help="run a fault-injection campaign")
    _add_input_arguments(p_camp)
    p_camp.add_argument("-n", type=int, default=100, help="injections")
    p_camp.add_argument("--kind", default="gpr", choices=["gpr", "fpr"])
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (default: REPRO_WORKERS or the CPU count)",
    )
    p_camp.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a crash-safe checkpoint journal (JSONL) here; "
        "completed chunks survive a crash and can be resumed",
    )
    p_camp.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="PATH",
        help="resume a previous campaign from its journal: replay "
        "journaled chunks, run only the remainder, keep journaling to "
        "the same file (bit-identical to an uninterrupted run)",
    )
    p_camp.add_argument(
        "--watchdog-factor",
        type=float,
        default=None,
        metavar="F",
        help="enable the wall-clock watchdog: an injected run still going "
        "after F times the golden run's wall time is classified HANG",
    )
    p_camp.add_argument(
        "--probe",
        action="store_true",
        help="trace per-stage divergence against the golden run "
        "(observational: outcomes stay bit-identical)",
    )
    p_camp.add_argument(
        "--sampling",
        default="uniform",
        choices=["uniform", "stratified"],
        help="plan-drawing strategy: 'uniform' (the paper's brute-force "
        "draw, byte-identical across releases for a given seed) or "
        "'stratified' (adaptive rounds over register/bit/boundary cells "
        "with per-cell Wilson-CI convergence stopping; -n is ignored — "
        "see docs/sampling.md)",
    )
    p_camp.add_argument(
        "--ci-width",
        type=float,
        default=0.02,
        metavar="W",
        help="stratified mode: stop sampling a cell once the widest "
        "Wilson 95%% CI over its outcome rates is at most W",
    )
    p_camp.add_argument(
        "--round-size",
        type=_positive_int,
        default=8,
        metavar="K",
        help="stratified mode: draws per unresolved cell per round "
        "(journals checkpoint once per round)",
    )
    p_camp.add_argument(
        "--max-injections",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stratified mode: hard campaign-wide draw budget "
        "(default: sample until every cell converges)",
    )
    p_camp.add_argument(
        "--strata",
        type=_strata_grid,
        default=(4, 8, 8),
        metavar="RxBxC",
        help="stratified mode: cell grid as register-classes x "
        "bit-octets x max-cycle-strata (default 4x8x8; register classes "
        "and bit octets must divide 32 and 64)",
    )
    p_camp.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist the campaign record in this result store under a "
        "content-addressed id (see `repro report`)",
    )
    p_camp.add_argument(
        "--label",
        default=None,
        help="free-form label stored with the campaign record",
    )
    p_camp.add_argument("--out", type=Path, default=None, help="JSON record path")
    p_camp.add_argument(
        "--status",
        type=Path,
        default=None,
        metavar="PATH",
        help="maintain a crash-safe live status snapshot (atomic JSON "
        "rewritten on every campaign event; also via REPRO_STATUS=PATH); "
        "tail it with `repro watch PATH`",
    )
    p_camp.add_argument(
        "--serve",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="PORT",
        help="serve /status (JSON) and /metrics (Prometheus text) over "
        "HTTP on 127.0.0.1 while the campaign runs (PORT 0 or omitted = "
        "an ephemeral port, printed at startup)",
    )
    p_camp.add_argument(
        "--flight-recorder",
        type=Path,
        default=None,
        metavar="PATH",
        help="where to dump the flight-recorder event ring on interrupt/"
        "hang/worker failure (default: next to --status as "
        "*.flightrec.jsonl)",
    )
    p_camp.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="S",
        help="seconds between heartbeat progress lines (default: "
        "REPRO_HEARTBEAT_INTERVAL or 2.0)",
    )
    p_camp.add_argument(
        "--quiet",
        action="store_true",
        help="suppress heartbeat/annotation lines on stderr (progress "
        "still flows to --status / --serve subscribers)",
    )
    _add_trace_argument(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_events = subparsers.add_parser("events", help="full summarization with tracking")
    p_events.add_argument("--frames", type=int, default=32)
    p_events.add_argument("--objects", type=int, default=3)
    p_events.add_argument(
        "--algorithm", default="VS", choices=list(ALGORITHM_FACTORIES)
    )
    p_events.add_argument("--out", type=Path, default=None, help="overlay PGM path")
    p_events.set_defaults(func=cmd_events)

    p_exp = subparsers.add_parser("experiment", help="run one paper experiment")
    p_exp.add_argument(
        "figure",
        choices=["fig05", "fig06", "fig08", "fig09", "fig10", "fig11a", "fig11b", "fig12", "fig13"],
    )
    p_exp.add_argument("--scale", default="tiny", choices=["tiny", "quick", "medium", "paper"])
    p_exp.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for campaign figures "
        "(default: REPRO_WORKERS or the CPU count)",
    )
    _add_trace_argument(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_trace = subparsers.add_parser("trace", help="inspect a JSONL trace file")
    trace_sub = p_trace.add_subparsers(dest="trace_action", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize", help="render the per-stage time table from a trace"
    )
    p_trace_sum.add_argument("path", type=Path, help="trace JSONL file")
    p_trace_sum.set_defaults(func=cmd_trace)

    p_report = subparsers.add_parser("report", help="reports over stored campaigns")
    report_sub = p_report.add_subparsers(dest="report_action", required=True)

    def _add_report_io(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--format",
            default="terminal",
            choices=["terminal", "markdown", "html"],
            help="output format",
        )
        sub.add_argument("--out", type=Path, default=None, help="write here instead of stdout")

    p_rep_list = report_sub.add_parser("list", help="list stored campaigns")
    p_rep_list.add_argument("store", type=Path, help="result store directory")
    p_rep_list.set_defaults(func=cmd_report)

    p_rep_show = report_sub.add_parser("show", help="render one campaign report")
    p_rep_show.add_argument("store", type=Path, help="result store directory")
    p_rep_show.add_argument("id", help="campaign id (see `report list`)")
    _add_report_io(p_rep_show)
    p_rep_show.set_defaults(func=cmd_report)

    p_rep_diff = report_sub.add_parser(
        "diff", help="flag significant rate shifts between two campaigns (exit 4)"
    )
    p_rep_diff.add_argument("store", type=Path, help="result store directory")
    p_rep_diff.add_argument("id_a", help="baseline campaign id")
    p_rep_diff.add_argument("id_b", help="comparison campaign id")
    _add_report_io(p_rep_diff)
    p_rep_diff.set_defaults(func=cmd_report)

    p_rep_trend = report_sub.add_parser(
        "trend",
        help="outcome-rate and performance trajectories across stored "
        "campaigns (exit 4 when adjacent campaigns flag a z-test shift)",
    )
    p_rep_trend.add_argument("store", type=Path, help="result store directory")
    p_rep_trend.add_argument(
        "--bench",
        type=Path,
        default=None,
        metavar="PATH",
        help="BENCH_campaign.json perf trajectory to chart alongside",
    )
    _add_report_io(p_rep_trend)
    p_rep_trend.set_defaults(func=cmd_report)

    p_rep_query = report_sub.add_parser(
        "query",
        help="slice stored injections by register class / bit octet / "
        "stage / outcome through the store's SQLite index",
    )
    p_rep_query.add_argument("store", type=Path, help="result store directory")
    p_rep_query.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="filter clause (repeatable; same field twice ORs the "
        "values, different fields AND) — fields: campaign, label, kind, "
        "sampling, seed, probe, outcome, crash_kind, register, bit, "
        "register_class, bit_octet, stage, last_stage, fired",
    )
    p_rep_query.add_argument(
        "--group-by",
        default="outcome",
        metavar="F1,F2",
        help="comma-separated grouping fields (default: outcome)",
    )
    _add_report_io(p_rep_query)
    p_rep_query.set_defaults(func=cmd_report)

    p_store = subparsers.add_parser(
        "store", help="maintain a result store (migration, index rebuild)"
    )
    store_sub = p_store.add_subparsers(dest="store_action", required=True)

    p_store_migrate = store_sub.add_parser(
        "migrate",
        help="convert a v1 single-log store to the sharded v2 layout "
        "(lossless; every record keeps its content-addressed id)",
    )
    p_store_migrate.add_argument("store", type=Path, help="result store directory")
    p_store_migrate.set_defaults(func=cmd_store)

    p_store_rebuild = store_sub.add_parser(
        "rebuild",
        help="re-derive the side index (SQLite for v2, index.jsonl for "
        "v1) from the raw record files, repairing torn segment tails",
    )
    p_store_rebuild.add_argument("store", type=Path, help="result store directory")
    p_store_rebuild.set_defaults(func=cmd_store)

    p_watch = subparsers.add_parser(
        "watch", help="tail a live campaign status snapshot"
    )
    p_watch.add_argument("path", type=Path, help="status JSON file (campaign --status)")
    p_watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between polls (default 1.0)",
    )
    p_watch.add_argument(
        "--once",
        action="store_true",
        help="render the current snapshot once and exit",
    )
    p_watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="give up after S seconds if the campaign never finishes",
    )
    p_watch.set_defaults(func=cmd_watch)

    p_prot = subparsers.add_parser("protect", help="plan selective protection")
    _add_input_arguments(p_prot)
    p_prot.add_argument("-n", type=int, default=150, help="injections")
    p_prot.add_argument("--seed", type=int, default=0)
    p_prot.add_argument("--tolerance", type=int, default=10, help="ED tolerance")
    p_prot.set_defaults(func=cmd_protect)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
