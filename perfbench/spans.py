"""In-memory spans recorded around calls into the library's layers.

Spans are recorded only by the benchmark's own code, around calls into the
public functions of each module (the layers).  Each span keeps its name,
start and end (``time.perf_counter`` seconds), the index of the span that
caused it and the index of its root span (the operation it belongs to),
plus free-form attributes such as the solver branch or iteration count.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from typing import Dict, Iterator, List, Tuple


class Tracer:
    """Records nested spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rec = {"name": name, "parent": parent,
               "op": index if parent is None else self.spans[parent]["op"], **attrs}
        self.spans.append(rec)
        self._stack.append(index)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Drop-in tracer that records nothing (untraced runs)."""

    _ctx = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._ctx


NULL = NullTracer()

#: Which workload's spans give each layer's metrics.  A traced run of any
#: workload reports every layer; layers its own operations do not reach are
#: measured on probe rounds of the workload named here.
OWNER = {"cli": "cli_report", "distribution": "cli_report", "entropy": "cli_report",
         "evar": "grid_small", "duality": "dual_check"}

#: evar branch keys reported per layer; avar is a closed form (0 iterations),
#: so it has no time per iteration.
EVAR_KEYS = ("avar", "higher_order.p2", "higher_order.p10", "shannon", "negative_order")


def _ms(spans: List[dict]) -> List[float]:
    return [1000.0 * (s["end"] - s["start"]) for s in spans]


def _median_ms(spans: List[dict], what: str) -> float:
    if not spans:
        raise ValueError(f"no spans recorded for {what}")
    return statistics.median(_ms(spans))


def evar_key(branch: str, order: float) -> str:
    if branch == "higher_order":
        return "higher_order.p%g" % order
    return branch


def layer_metrics(spans: List[dict], roots: Dict[int, Tuple[str, bool]],
                  grid_bytes: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``roots`` maps each root span index to the workload that ran it and
    whether it was an untimed warm-up operation, so that each layer is
    measured on its owning workload only and warm-ups count only as cold
    oracle calls.
    """
    def owned(layer: str, name: str, warmup: bool = False) -> List[dict]:
        return [s for s in spans
                if s["name"] == name and roots[s["op"]] == (OWNER[layer], warmup)]

    m: Dict[str, float] = {}
    canon = _median_ms(owned("distribution", "distribution.from_samples"), "canonicalize")
    m["distribution.canonicalize_ms"] = canon
    m["cli.import_ms"] = statistics.median(
        s["import_s"] * 1000.0 for s in owned("cli", "cli.import"))
    m["cli.ingest_ms"] = _median_ms(owned("cli", "cli.main.ingest"), "ingest") - canon
    full = owned("cli", "cli.main.full")
    m["cli.emit_density_ms"] = (_median_ms(full, "full request")
                                - _median_ms(owned("cli", "cli.main.no_density"), "no density"))
    m["cli.report_mb"] = statistics.median(s["report_bytes"] for s in full) / 1e6
    m["entropy.density_check_ms"] = _median_ms(owned("entropy", "entropy.Density"), "Density")

    solves = owned("evar", "evar.evar")
    for key in EVAR_KEYS:
        mine = [s for s in solves if evar_key(s["branch"], s["order"]) == key]
        m[f"evar.solve_ms.{key}"] = _median_ms(mine, f"evar {key}")
        iterations = sum(s["iterations"] for s in mine)
        m[f"evar.iterations.{key}"] = iterations / len(mine)
        if key != "avar":
            m[f"evar.us_per_iteration.{key}"] = (
                1e6 * sum(s["end"] - s["start"] for s in mine) / iterations)

    cold = [s for s in owned("duality", "duality.sup_oracle", warmup=True) if s["cold"]]
    m["duality.sup_oracle_cold_ms"] = _median_ms(cold, "cold oracle")
    m["duality.sup_oracle_warm_ms"] = _median_ms(owned("duality", "duality.sup_oracle"),
                                                 "warm oracle")
    m["duality.grid_mb"] = grid_bytes / 1e6
    norms = owned("duality", "duality.dual_norm") + owned("duality", "duality.dual_norm_raw")
    m["duality.dual_norm_ms.p_high"] = _median_ms([s for s in norms if s["order"] > 1.0], "p>1")
    m["duality.dual_norm_ms.p_neg"] = _median_ms([s for s in norms if s["order"] < 0.0], "p<0")
    m["duality.hb_ms"] = _median_ms(owned("duality", "duality.hb_density_for"), "hb")
    m["duality.kusuoka_ms"] = _median_ms(owned("duality", "duality.kusuoka"), "kusuoka")
    for k, v in m.items():
        if not math.isfinite(v):
            raise ValueError(f"layer metric {k} is not finite")
    return m
