#!/usr/bin/env python3
"""Benchmark of renyi-risk: one workload per run, checked, with metrics as JSON.

    python3 perfbench/run.py --workload grid_small --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the library from its ``src``
directory.  The workload runs in fresh worker processes (see ``worker.py``);
every operation's output goes through the independent checker
(``check.py``), and the checker's self-test runs after the timed loop.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --reference

prints the per-layer reference table at 1e2, 1e4 and 1e6 atoms instead
(see ``reference.py``).  Generated inputs, results and traces go to
``perfbench/out``.
"""

from __future__ import annotations

import os

# one BLAS thread for this process and, through the environment, every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# no run leaves bytecode behind for a later run's set-up to profit from
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Fresh processes that measure set-up time for an in-process workload,
#: counting the one that then runs the timed loop.
SETUP_PROCESSES = 3
WORKER_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_worker(args, out_dir: Path, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(worker_results: list, main: dict) -> dict:
    setup = [s for w in worker_results for s in w["setup_s"]]
    latencies = main["plain"]
    return {
        "throughput_ops": len(latencies) / main["busy"],
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="print the per-layer reference table instead of running a workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "renyi_risk" / "__init__.py").is_file():
        return fail(f"no library source under {ROOT / 'src'}; run from a checkout of the repo")
    if args.reference:
        sys.path.insert(0, str(HERE))
        import reference

        return reference.main(OUT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        return fail(f"--workload must be one of {sorted(names)}")
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        return fail("--seconds must be positive")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        workers = []
        in_process = args.workload != "cli_report"
        if in_process and not args.trace:
            workers = [run_worker(args, out_dir, True) for _ in range(SETUP_PROCESSES - 1)]
        main_result = run_worker(args, out_dir, False)
    finally:
        for csv in out_dir.glob("*.csv"):
            csv.unlink()
    workers.append(main_result)
    metrics = main_result["layers"] if args.trace else end_to_end(workers, main_result)
    if set(metrics) != set(units):
        return fail(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json's")

    problems = [p for w in workers for p in w["problems"]]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for e in main_result["errors"][:5]:
        print(f"operation failed: {e}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
