"""Per-layer reference figures at 1e2, 1e4 and 1e6 atoms.

Run through ``python3 perfbench/run.py --reference``.  For each size the
CLI's input sample (normal body, lognormal tail; fixed seed 0) is written
as CSV, then each layer is timed with ``time.perf_counter`` (median of five
calls below 1e6 atoms, one call at 1e6):

* import: ``import renyi_risk.cli`` in a fresh child process (size-free);
* ingest: ``cli.main`` with a request that needs no solve (alpha 0), minus
  canonicalize;
* canonicalize: ``from_samples`` on the raw array;
* solve: ``evar`` per (order, alpha) cell, with its iteration count;
* density check: ``Density(d, weights)`` on the returned density;
* serialization: ``cli.main`` at alpha 0.5 and orders 1 2 inf -2 with
  ``--emit-density`` minus the same request without it.

A cell whose call raises is recorded as failed with its message.
The table goes to standard output and ``perfbench/out/reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads

SIZES = (100, 10_000, 1_000_000)
ORDERS = (1.0, 2.0, 10.0, math.inf, -2.0)
ALPHAS = (0.5, 0.95, 0.99)


def _timed(fn, reps: int):
    """Median milliseconds of ``reps`` calls, and the last call's result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times), out


def _main_ms(cli, argv, reps: int) -> float:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        ms, code = _timed(lambda: cli.main(argv), reps)
    if code != 0:
        raise RuntimeError(f"exit {code}, {err.getvalue().strip()}")
    return ms


def main(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rr = workloads.import_library()
    import renyi_risk.cli as cli

    proc = subprocess.run([sys.executable, "-c", workloads.IMPORT_TIMER], capture_output=True,
                          check=True, env=workloads.child_env(), cwd=workloads.ROOT, timeout=60)
    table = {"python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "import_ms": 1000.0 * float(proc.stdout), "sizes": []}
    report = workloads.CliReport(0, out_dir)
    for n in SIZES:
        y = report._sample(np.random.default_rng([0, n]), n)
        path = out_dir / f"reference-{n}.csv"
        report._write_csv(path, y)
        row = {"n": n, "cells": []}
        reps = 1 if n >= 1_000_000 else 5
        canon_ms, d = _timed(lambda: rr.from_samples(y), reps)
        row["canonicalize_ms"] = canon_ms
        ingest = report.request(path, False, 0.0, (1.0,))
        row["ingest_ms"] = _main_ms(cli, ingest, reps) - canon_ms
        try:
            full = _main_ms(cli, report.request(path, True, 0.5), reps)
            row["serialize_ms"] = full - _main_ms(cli, report.request(path, False, 0.5), reps)
        except RuntimeError as exc:
            row["serialize_ms"] = f"failed: {exc}"
        for o in ORDERS:
            for a in ALPHAS:
                cell = {"order": "inf" if math.isinf(o) else o, "alpha": a}
                try:
                    cell["solve_ms"], res = _timed(lambda: rr.evar(d, rr.RiskSpec(a, o)), reps)
                    cell["iterations"] = res.iterations
                    cell["branch"] = res.branch
                    cell["density_check_ms"], _ = _timed(
                        lambda: rr.Density(d, res.density.weights), reps)
                except (ValueError, RuntimeError) as exc:
                    cell["failed"] = f"{type(exc).__name__}: {exc}"
                row["cells"].append(cell)
        path.unlink()
        table["sizes"].append(row)
        print(f"n={n} done", file=sys.stderr, flush=True)
    (out_dir / "reference.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    print(markdown(table))
    return 0


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{x:.3g}"


def markdown(table: dict) -> str:
    lines = [f"import (`import renyi_risk.cli`, child process): {table['import_ms']:.0f} ms", "",
             "| n | ingest ms | canonicalize ms | serialize ms (alpha 0.5, 4 densities) |",
             "|---|---|---|---|"]
    for row in table["sizes"]:
        lines.append(f"| {row['n']:.0e} | {_fmt(row['ingest_ms'])} | "
                     f"{_fmt(row['canonicalize_ms'])} | {_fmt(row['serialize_ms'])} |")
    lines += ["", "| n | order | alpha | branch | solve ms | iterations | density check ms |",
              "|---|---|---|---|---|---|---|"]
    for row in table["sizes"]:
        for c in row["cells"]:
            if "failed" in c:
                lines.append(f"| {row['n']:.0e} | {c['order']} | {c['alpha']} | **failed**: "
                             f"{c['failed']} | | | |")
            else:
                lines.append(f"| {row['n']:.0e} | {c['order']} | {c['alpha']} | {c['branch']} | "
                             f"{_fmt(c['solve_ms'])} | {c['iterations']} | "
                             f"{_fmt(c['density_check_ms'])} |")
    return "\n".join(lines)
