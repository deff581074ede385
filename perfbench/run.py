"""The nckit benchmark: one command, four workloads, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # all four workloads in turn

Each workload runs in its own single-threaded process (``worker.py``), one
after another.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is a separate run that installs the tracer
and reports the per-layer metrics instead.  Set-up is timed from process
start to the first timed op, in ``SETUP_SAMPLES`` fresh processes, and the
median is reported.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
same figures for a reader, and also ``failed_frac``, the op count, the op
times in seconds (``op_s.p50``, ``op_s.min``, ``ops_per_s`` and, for runs of
at least 100 ops, ``op_s.p90``) and the mean reference-task time.  Op times
in seconds move with the load other tenants put on a shared host, by up to
a factor of two for minutes at a time, so the JSON carries ``op_rel.mean``:
the mean op time over the mean time of a fixed reference task interleaved
with the ops (``worker.reference_task``).  The load slows both alike.  The
exit code is nonzero when an op failed; it is nonzero with no result line
when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
# A worker gets its run time plus this much before it is killed.
WORKER_GRACE_S = 120
P90_MIN_OPS = 100


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def metric_specs() -> dict:
    """Name -> unit of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def start_worker(args, setup_only: bool):
    """Start one worker; return its output after ``ready`` and its set-up seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if args.goldens:
        cmd += ["--goldens", args.goldens]
    if args.trace:
        cmd += ["--spans-out",
                str(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(
            f"{args.workload} worker exited with code {proc.returncode} "
            f"before reporting a result"
        )
    return rest, setup_s


def run_workload(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, setup_only=True)[1])
    out, setup_s = start_worker(args, setup_only=False)
    setups.append(setup_s)
    raw = json.loads(out.strip().splitlines()[-1])
    times = raw["op_s"]
    report = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "ops_timed": len(times),
        "setup_samples": len(setups),
    }
    if args.trace:
        report["metrics"] = raw["layers"]
        report["spans"] = raw["spans"]
        return report
    report["metrics"] = {
        "op_rel.mean": statistics.mean(times) / statistics.mean(raw["ref_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    report["readable"] = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.min": (min(times), "s"),
        "ref_s.mean": (statistics.mean(raw["ref_s"]), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }
    if len(times) >= P90_MIN_OPS:
        report["readable"]["op_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    return report


def describe(workload: str, report: dict, units: dict) -> list[str]:
    frac = report["failed"] / report["attempted"]
    lines = [f"{workload}: {report['attempted']} ops attempted, "
             f"{report['failed']} failed, failed_frac {frac:g}"]
    figures = {name: (value, units[name]) for name, value in report["metrics"].items()}
    figures.update(report.get("readable", {}))
    for name, (value, unit) in figures.items():
        note = ""
        if name.startswith("op_s."):
            note = f"  ({report['ops_timed']} ops)"
        elif name == "setup_s":
            note = f"  (median of {report['setup_samples']} processes)"
        lines.append(f"  {name:28s} {value:.6g} {unit}{note}")
    if "spans" in report:
        lines.append(f"  spans kept: {report['spans']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the smoke test: tiny sizes (n <= 4) and another goldens file.
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--goldens", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nckit" / "__init__.py").is_file():
        print(f"run.py: no nckit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_specs()["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            report = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        except BenchmarkError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        if set(report["metrics"]) != set(units):
            print(f"run.py: {workload} reported {sorted(report['metrics'])}, "
                  f"expected {sorted(units)}", file=sys.stderr)
            return 2
        print("\n".join(describe(workload, report, units)), flush=True)
        total["attempted"] += report["attempted"]
        total["failed"] += report["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, value in report["metrics"].items():
            total["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
