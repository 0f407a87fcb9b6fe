"""One workload in one fresh process: set-up, timed closed loop, checks.

Started by ``run.py``; prints one JSON object as its last line of output.
The loop is a single closed-loop client: the next operation starts only
after the previous one returned.  It repeats whole rounds until
``--seconds`` have passed.  With ``--trace 1`` untraced and traced rounds
alternate (the difference of their median latencies is the tracing
overhead), and the layers the workload does not reach are measured on
probe rounds of the workloads that do.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np

import check
import spans
import workloads

#: Probe rounds run for each workload that owns layers the named one does not reach.
PROBE_ROUNDS = {"cli_report": 1, "grid_small": 2, "dual_check": 1}


def run_loop(wl, seconds: float, tracer) -> dict:
    plain, traced, problems, errors = [], [], [], []
    attempted = failed = 0
    busy = 0.0
    start = time.perf_counter()
    r = 0
    # traced runs need at least one untraced and one traced round
    while time.perf_counter() - start < seconds or (tracer is not None and r < 2):
        tr = tracer if (tracer is not None and r % 2 == 1) else spans.NULL
        for inp in wl.round(r):
            with tr.span("op", workload=wl.name, warmup=False):
                t0 = time.perf_counter()
                try:
                    out = wl.op(inp, tr)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = None
                    errors.append(f"{type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
            attempted += 1
            if out is None:
                failed += 1
                continue
            busy += dt
            (traced if tr is tracer else plain).append(dt)
            problems.extend(wl.check(inp, out))
        if tr is tracer:
            wl.probe(tracer)
        r += 1
    return {"plain": plain, "traced": traced, "busy": busy, "attempted": attempted,
            "failed": failed, "problems": problems, "errors": errors}


def self_test() -> list:
    """The checker must accept the library's results and reject perturbed ones."""
    rr = workloads.import_library()
    y = np.random.default_rng(20180123).lognormal(0.0, 1.0, 200)
    d = rr.from_samples(y)
    results = []
    for a in (0.5, 0.95):
        for o in check.CHAIN:
            res = rr.evar(d, rr.RiskSpec(a, o))
            results.append((a, o, res.value, res.t_star, res.density.weights))
    return [f"checker self-test: {p}" for p in check.self_test(check.Sample(y), results)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    wl.prepare()
    tracer = spans.Tracer() if args.trace else None
    setup = wl.setup(tracer or spans.NULL)
    result = {"setup_s": setup, "problems": wl.problems}
    if not args.setup_only:
        loop = run_loop(wl, args.seconds, tracer)
        problems = loop.pop("problems")
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_report" else resource.RUSAGE_SELF
        # ru_maxrss is in KiB on Linux
        result.update(loop, peak_rss_mb=resource.getrusage(who).ru_maxrss * 1024 / 1e6)
        if tracer is not None:
            result["layers"] = trace_layers(wl, args, tracer, loop, problems)
        # after the loop and the memory reading, so it costs the workload nothing
        result["problems"] += problems + self_test()
    print(json.dumps(result))
    return 0


def trace_layers(wl, args, tracer, loop: dict, problems: list) -> dict:
    """Probe the layers the named workload does not own, then compute every layer metric.

    Check failures of the probe rounds are appended to ``problems``.
    """
    owners = set(spans.OWNER.values()) - {wl.name}
    for name in sorted(owners):
        other = workloads.WORKLOADS[name](args.seed, args.out)
        other.prepare()
        other.setup(tracer)
        for r in range(PROBE_ROUNDS[name]):
            for inp in other.round(r):
                with tracer.span("op", workload=name, warmup=False):
                    out = other.op(inp, tracer)
                problems += other.check(inp, out)
            other.probe(tracer)
        problems += other.problems
    roots = {i: (s["workload"], s["warmup"])
             for i, s in enumerate(tracer.spans) if s["parent"] is None}
    layers = spans.layer_metrics(tracer.spans, roots, workloads.DualCheck.grid_bytes())
    plain = statistics.median(loop["plain"])
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(loop["traced"]) / plain - 1.0)
    trace_file = args.out / f"trace-{wl.name}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
