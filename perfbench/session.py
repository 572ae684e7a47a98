"""One measured session of one workload, in a fresh interpreter.

``run.py`` launches sessions one at a time, so golden, tape and input
caches start cold for every ``setup_s`` and ``ru_maxrss`` is per
session.  Set-up is timed from the top of this file, so imports of
the program count toward it.  Prints one JSON object as the last line
of standard output.

Set-up and units are timed on the process's CPU clock.  On a virtual
machine with steal-time accounting (KVM guests) that clock leaves out
the time the hypervisor ran other guests instead of this one, which on
a shared host moved wall-clock figures by tens of percent between runs
of the same code.  The workloads are serial and CPU-bound, so on an idle
host the two clocks agree.  The budget of the timed phase is wall time.
"""

import time

START = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--session", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0, help="timed-phase seconds")
    parser.add_argument("--units", type=int, default=0, help="fixed unit count (0: use budget)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    recorder = tracer = None
    if args.trace:
        from repro import telemetry

        tracer = telemetry.enable()
        recorder = layers.Recorder()
        layers.install(recorder)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.session, args.tmp, recorder)
    workload.setup()
    setup_s = time.process_time() - START
    if recorder is not None:
        recorder.mark_timed_phase()

    # How fast the host runs: before the timed phase and after every unit.
    probe_s = [hostspeed.probe() for _ in range(5)]
    unit_s: list[float] = []
    items: list[int] = []
    raised = 0
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + args.budget
    while True:
        start = time.process_time()
        try:
            items.append(workload.unit(len(unit_s)))
        except Exception:  # noqa: BLE001 - a library call that raised is a failed operation
            traceback.print_exc()
            raised += 1
            break
        unit_s.append(time.process_time() - start)
        probe_s.append(hostspeed.probe())
        if len(unit_s) == 1:
            # Memory after fixed work (set-up plus one unit): how many
            # units fit the budget must not move it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.units and len(unit_s) >= args.units:
            break
        if not args.units and time.perf_counter() >= deadline:
            break

    layer_report = {}
    if recorder is not None:
        # Read the layers before the oracle runs, so checks are not measured.

        recorder.unpatch()
        telemetry.disable()
        metrics = layers.layer_metrics(recorder, tracer.registry, workload.profiles)
        layer_report = {
            "layers": metrics,
            "broken_predictions": layers.check_predictions(args.workload, metrics),
        }

    checked = bad = 0
    try:
        checked, bad = workload.check()
    except Exception:  # noqa: BLE001 - an oracle that cannot run is a failure
        traceback.print_exc()
        raised += 1

    report = {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "items": items,
        "probe_s": probe_s,
        "ops": workload.operations(sum(items)),
        "peak_rss_mb": peak_rss_mb,
        "checked": checked,
        "bad": bad,
        "raised": raised,
        "extras": workload.extras(),
        **layer_report,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
