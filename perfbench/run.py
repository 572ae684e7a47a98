"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload vs-campaign --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each measured run launches fresh
interpreters (``session.py``) one at a time and aggregates them:

* ``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
* ``--trace 1`` runs the same fixed work untraced and with the
  per-layer wrappers and program telemetry on, alternating, and prints
  every per-layer metric, including ``bench.trace_overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("vs-campaign", "store-corpus")

#: Fresh-process sessions per run; each measures an equal share of
#: ``--seconds``, and ``setup_s`` is their median.
SESSIONS = 5
#: Untraced/traced session pairs of a ``--trace 1`` run.
TRACE_PAIRS = 3
#: Hard limit on one run, below the 180 s the run must end within.
RUN_LIMIT_S = 170.0
#: Environment that would switch the program off its default path.
_PROGRAM_ENV = ("REPRO_WORKERS", "REPRO_TRACE", "REPRO_STATUS", "REPRO_SCALE",
                "REPRO_HEARTBEAT_INTERVAL", "REPRO_STORE_SEGMENT_BYTES")


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_session(workload: str, seed: int, session: int, tmp_root: Path, deadline: float,
                budget: float = 0.0, units: int = 0, trace: int = 0) -> dict:
    """Launch one session and wait for it; returns its report."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing: dict and set layouts repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the pipeline's matrices are small, and helper
    # threads only contend with the host (measured slower and noisier
    # with two).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", workload, "--seed", str(seed), "--session", str(session),
        "--budget", str(budget), "--units", str(units), "--trace", str(trace),
        "--tmp", str(tmp),
    ]
    # A session of its own process group, so a timeout also stops any
    # process the session started.
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} session {session} exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(workload: str, sessions: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics, plus the workload's own figures for the report.

    Timings are medians over the units (or puts) of a session, so a short
    stall of a shared host moves one sample, not the run.  Sessions may do
    different work (``vs-campaign`` draws its campaigns per session), so
    per-session medians are averaged: a median pooled over sessions would
    jump between sessions' values as the number of units each fits moves.

    Each session's timings are scaled to the reference host speed of
    ``hostspeed.py`` by the median of its own probes.  The report also
    prints the unscaled figures and the scale.
    """
    # Above 1 where the host ran the probe slower than the reference.
    slow = [statistics.median(s["probe_s"]) / hostspeed.REFERENCE_S for s in sessions]
    setup_s = statistics.median(s["setup_s"] / f for s, f in zip(sessions, slow))
    unit_s = statistics.fmean(statistics.median(s["unit_s"]) / f for s, f in zip(sessions, slow))
    if workload == "store-corpus":
        # Every put carries the same number of rows, in every session.
        items_per_s = statistics.median(
            r * f for s, f in zip(sessions, slow) for r in s["extras"]["put_rate"]
        )
    else:
        items_per_s = statistics.fmean(
            f * statistics.median(n / t for n, t in zip(s["items"], s["unit_s"]))
            for s, f in zip(sessions, slow)
        )
    own: dict = {
        "wall_s": (setup_s + unit_s, "s"),
        "host_slowdown": (statistics.median(slow), "ratio"),
        "unscaled_setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
    }
    if workload == "store-corpus":
        query_s = [t / f for s, f in zip(sessions, slow) for t in s["extras"]["query_s"]]
        own["unscaled_items_per_s"] = (
            statistics.median(r for s in sessions for r in s["extras"]["put_rate"]), "1/s")
        own["ingest_rows_per_s"] = (items_per_s, "rows/s")
        own["query_p50_ms"] = (1000 * statistics.median(query_s), "ms")
        own["query_p99_ms"] = (1000 * layers.quantile(query_s, 0.99), "ms")
        own["queries"] = (len(query_s), "count")
    else:
        own["unscaled_items_per_s"] = (statistics.fmean(
            statistics.median(n / t for n, t in zip(s["items"], s["unit_s"])) for s in sessions
        ), "1/s")
        own["injections_per_s"] = (items_per_s, "1/s")
    metrics = {
        "setup_s": setup_s,
        "items_per_s": items_per_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    return metrics, own


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    # Byte-compile first, so the first session's set-up does not pay for it.
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(HERE, quiet=2)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": "quick", "git_sha": git_sha(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
    }
    if args.trace:
        # The same fixed work untraced and traced, alternating, so a slow
        # spell of the host lands on both sides.
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_session(args.workload, args.seed, 0, tmp_root, deadline, units=1))
            traced.append(run_session(args.workload, args.seed, 0, tmp_root, deadline, units=1,
                                      trace=1))
        sessions = plain + traced
        values = {
            name: statistics.median(s["layers"][name] for s in traced)
            for name in traced[0]["layers"]
        }
        wall = [statistics.median(s["setup_s"] + sum(s["unit_s"]) for s in side)
                for side in (plain, traced)]
        values["bench.trace_overhead"] = wall[1] / wall[0] - 1
        declared = spec["per_layer"]
        broken = sorted({line for s in traced for line in s["broken_predictions"]})
        for line in broken:
            print(f"prediction broken: {line}")
        own = {}
    else:
        sessions = [
            run_session(args.workload, args.seed, index, tmp_root, deadline,
                        budget=args.seconds / SESSIONS)
            for index in range(SESSIONS)
        ]
        values, own = end_to_end(args.workload, sessions)
        declared = spec["end_to_end"]
        broken = []

    attempted = sum(s["ops"] + s["checked"] + s["raised"] for s in sessions)
    failed = sum(s["bad"] + s["raised"] for s in sessions)
    meta["sessions"] = len(sessions)
    print("meta " + json.dumps(meta, sort_keys=True))
    for s in sessions:
        raw = {k: s[k] for k in ("setup_s", "unit_s", "items", "peak_rss_mb", "probe_s")}
        print("session " + json.dumps(raw))
    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:48s} {values[entry['name']]:>16.6g} {entry['unit']}")
    for name, (value, unit) in own.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:>16.6g} fraction ({failed}/{attempted})")
    undeclared = set(values) - set(metrics)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    result = {
        "correct": failed == 0 and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
