"""Independent result checker for the benchmark.

Every check is recomputed here with numpy and ``math`` from the raw
generated inputs (never from saved outputs and never through the library's
own code paths): the distribution is canonicalized again from the raw
samples, objectives use direct powers instead of log-space sums, and
expectations use compensated sums.

A result is a tuple ``(alpha, order, value, t_star, weights)`` where
``weights`` is the attaining density per canonical atom (or None) and, for
order ``inf``, ``t_star`` is the exponential tilt parameter.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Value tolerance as a share of the sample's scale.  A perturbation of
#: 1e-6 of scale must be rejected, so this stays well below it.
REL_TOL = 1e-9
#: Absolute tolerance on E Z = 1.
UNIT_TOL = 1e-9
#: Tolerance on the entropy budget, relative to max(1, budget).  The solvers
#: stop at a relative bracket width near 1e-11 in t, which leaves the
#: attaining density outside the budget by up to 7e-9 on 3-5 atoms.
BUDGET_TOL = 1e-7
#: Relative step for the "not lower at t* +- h" probe of the scalar objective.
STEP = 1e-3
#: Chain order used for the order chain avar <= p=2 <= p=10 <= Shannon <= p=-2.
CHAIN = (1.0, 2.0, 10.0, math.inf, -2.0)

Result = Tuple[float, float, float, Optional[float], Optional[np.ndarray]]


class Sample:
    """Canonical atoms and probabilities rebuilt from raw samples."""

    def __init__(self, values: Sequence[float], weights: Optional[Sequence[float]] = None):
        raw = np.asarray(values, dtype=float)
        atoms, inverse = np.unique(raw, return_inverse=True)
        w = np.ones(raw.size) if weights is None else np.asarray(weights, dtype=float)
        mass = np.bincount(inverse.ravel(), weights=w, minlength=atoms.size)
        keep = mass > 0.0
        self.y = atoms[keep]
        self.p = mass[keep] / math.fsum(mass[keep])
        self.mean = math.fsum(self.p * self.y)
        self.top = float(self.y[-1])
        self.bottom = float(self.y[0])
        self.scale = max(abs(self.top), abs(self.bottom), self.top - self.bottom) or 1.0
        self.tol = REL_TOL * self.scale


def conjugate(order: float) -> float:
    if order == 1.0:
        return math.inf
    if math.isinf(order):
        return 1.0
    return order / (order - 1.0)


def divergence(s: Sample, z: np.ndarray, q: float) -> float:
    """Renyi divergence of order q of the reweighting z from the base."""
    if math.isinf(q):
        return math.log(float(z.max()))
    pos = z > 0.0
    if q == 1.0:
        return math.fsum(s.p[pos] * z[pos] * np.log(z[pos]))
    return math.log(math.fsum(s.p[pos] * z[pos] ** q)) / (q - 1.0)


def objective(s: Sample, alpha: float, order: float, t: float) -> float:
    """The scalar dual objective of the order at t, with direct powers."""
    beta = 1.0 / (1.0 - alpha)
    if order == 1.0:
        return t + beta * math.fsum(s.p * np.maximum(s.y - t, 0.0))
    if math.isinf(order):
        if not t > 0.0:
            return math.inf
        shift = t * s.top
        log_mgf = shift + math.log(math.fsum(s.p * np.exp(t * s.y - shift)))
        return (log_mgf - math.log1p(-alpha)) / t
    if order > 1.0:
        moment = math.fsum(s.p * np.maximum(s.y - t, 0.0) ** order)
        return t + beta ** (1.0 / order) * moment ** (1.0 / order)
    # negative order: defined for t above the essential supremum, with the
    # boundary limit equal to the essential supremum itself
    if t < s.top:
        return math.inf
    if t == s.top:
        return s.top
    moment = math.fsum(s.p * (t - s.y) ** order)
    return t - beta ** (1.0 / order) * moment ** (1.0 / order)


def tail_mean(s: Sample, alpha: float) -> float:
    """Average value-at-risk from the sorted tail: the quantile atom's share plus the rest."""
    cdf = np.cumsum(s.p)
    k = min(int(np.searchsorted(cdf, alpha, side="left")), s.y.size - 1)
    upper = math.fsum(s.p[k + 1:] * s.y[k + 1:])
    return (upper + max(float(cdf[k]) - alpha, 0.0) * float(s.y[k])) / (1.0 - alpha)


def check_result(s: Sample, r: Result) -> List[str]:
    """Checks of one (alpha, order) result against the raw sample."""
    alpha, order, value, t_star, weights = r
    tag = f"alpha={alpha} order={order}"
    bad: List[str] = []
    log_budget = -math.log1p(-alpha)
    if not (s.mean - s.tol <= value <= s.top + s.tol):
        bad.append(f"{tag}: value {value!r} outside [mean {s.mean!r}, esssup {s.top!r}]")
    if weights is None:
        bad.append(f"{tag}: no attaining density")
    else:
        z = np.asarray(weights, dtype=float)
        if z.shape != s.y.shape:
            return bad + [f"{tag}: density has {z.size} weights for {s.y.size} atoms"]
        if not np.all(np.isfinite(z)) or np.any(z < 0.0):
            return bad + [f"{tag}: density weights not finite and nonnegative"]
        ez = math.fsum(s.p * z)
        if abs(ez - 1.0) > UNIT_TOL:
            bad.append(f"{tag}: E Z = {ez!r}, not 1")
        eyz = math.fsum(s.p * z * s.y)
        if abs(eyz - value) > s.tol:
            bad.append(f"{tag}: E[YZ] = {eyz!r} differs from value {value!r}")
        div = divergence(s, z, conjugate(order))
        if div > log_budget + BUDGET_TOL * max(1.0, log_budget):
            bad.append(f"{tag}: divergence {div!r} exceeds budget {log_budget!r}")
    if t_star is not None:
        f0 = objective(s, alpha, order, t_star)
        if abs(f0 - value) > s.tol:
            bad.append(f"{tag}: objective {f0!r} at t*={t_star!r} differs from value {value!r}")
        h = STEP * (abs(t_star) if math.isinf(order) else (s.top - s.bottom or s.scale))
        for t in (t_star - h, t_star + h):
            ft = objective(s, alpha, order, t)
            if ft < value - s.tol:
                bad.append(f"{tag}: objective {ft!r} at t={t!r} is below the value {value!r}")
    elif not (math.isinf(order) and abs(value - s.top) <= s.tol):
        bad.append(f"{tag}: no optimizer reported")
    if order == 1.0:
        closed = tail_mean(s, alpha)
        if abs(closed - value) > s.tol:
            bad.append(f"{tag}: tail mean {value!r} differs from the sorted-tail form {closed!r}")
    return bad


def check_family(s: Sample, results: Sequence[Result]) -> List[str]:
    """Per-result checks plus the order chain and monotonicity in alpha."""
    bad: List[str] = []
    table: Dict[Tuple[float, float], float] = {}
    for r in results:
        bad.extend(check_result(s, r))
        table[(r[0], r[1])] = r[2]
    alphas = sorted({a for a, _ in table})
    orders = [o for o in CHAIN if any(o == k for _, k in table)]
    for a in alphas:
        chain = [(o, table[(a, o)]) for o in orders if (a, o) in table]
        chain.append(("esssup", s.top))
        for (o1, v1), (o2, v2) in zip(chain, chain[1:]):
            if v1 > v2 + s.tol:
                bad.append(f"alpha={a}: order chain broken, {o1}: {v1!r} > {o2}: {v2!r}")
    for o in orders:
        line = [(a, table[(a, o)]) for a in alphas if (a, o) in table]
        for (a1, v1), (a2, v2) in zip(line, line[1:]):
            if v1 > v2 + s.tol:
                bad.append(f"order={o}: not monotone in alpha, {a1}: {v1!r} > {a2}: {v2!r}")
    return bad


def check_report(s: Sample, report: dict, alpha: float, orders: Sequence[float]) -> List[str]:
    """Checks of a ``renyi-risk risk --emit-density`` JSON report."""
    bad: List[str] = []
    head = report.get("input", {})
    if head.get("atoms") != s.y.size:
        bad.append(f"report has {head.get('atoms')} atoms, sample has {s.y.size}")
    if head.get("esssup") != s.top or head.get("essinf") != s.bottom:
        bad.append("report's essinf/esssup differ from the sample's")
    if abs(head.get("mean", math.nan) - s.mean) > s.tol:
        bad.append(f"report mean {head.get('mean')!r} differs from {s.mean!r}")
    entries = report.get("entries", [])
    want = [(alpha, o) for o in orders]
    got = [(e["alpha"], math.inf if e["order"] == "inf" else float(e["order"])) for e in entries]
    if got != want:
        return bad + [f"report entries {got} differ from the request {want}"]
    results = [
        (alpha, o, e["value"], e["t_star"],
         None if e.get("density") is None else np.asarray(e["density"], dtype=float))
        for (_, o), e in zip(want, entries)
    ]
    return bad + check_family(s, results)


def check_duality(s: Sample, result: Result, oracle_value: float, oracle_weights: np.ndarray,
                  norm_of_density: float, witness: np.ndarray, norm_of_witness: float,
                  kusuoka_value: float) -> List[str]:
    """Supremum-side checks of one distribution with positive atoms."""
    alpha, order, value, _, _ = result
    tag = f"alpha={alpha} order={order}"
    bad = check_result(s, result)
    if s.bottom <= 0.0:
        bad.append(f"{tag}: duality checks need positive atoms, so that risk(|Y|) = risk(Y)")
    if oracle_value > value + s.tol:
        bad.append(f"{tag}: weak duality broken, oracle {oracle_value!r} > value {value!r}")
    oz = np.asarray(oracle_weights, dtype=float)
    if abs(math.fsum(s.p * oz) - 1.0) > UNIT_TOL:
        bad.append(f"{tag}: oracle density does not have unit mean")
    elif abs(math.fsum(s.p * oz * s.y) - oracle_value) > s.tol:
        bad.append(f"{tag}: oracle value is not E[Y Z] of its density")
    log_budget = -math.log1p(-alpha)
    if divergence(s, oz, conjugate(order)) > log_budget + BUDGET_TOL * max(1.0, log_budget):
        bad.append(f"{tag}: oracle density is outside the entropy budget")
    if abs(norm_of_density - 1.0) > 1e-8:
        bad.append(f"{tag}: dual norm of the attaining density is {norm_of_density!r}, not 1")
    zp = np.asarray(witness, dtype=float)
    pairing = math.fsum(s.p * np.abs(s.y) * zp)
    if abs(pairing - value * norm_of_witness) > 1e-8 * abs(pairing):
        bad.append(f"{tag}: Hahn-Banach pairing {pairing!r} != risk(|Y|) * dual norm "
                   f"{value * norm_of_witness!r}")
    if abs(kusuoka_value - value) > s.tol:
        bad.append(f"{tag}: Kusuoka evaluation {kusuoka_value!r} differs from value {value!r}")
    return bad


def self_test(s: Sample, results: Sequence[Result]) -> List[str]:
    """Show the checker accepts ``results`` and rejects two perturbations of them.

    Returns the list of problems; empty means the checker behaves.
    """
    problems = [f"clean results rejected: {m}" for m in check_family(s, results)]
    for i, (a, o, v, t, z) in enumerate(results):
        moved = list(results)
        moved[i] = (a, o, v + 1e-6 * s.scale, t, z)
        if not check_family(s, moved):
            problems.append(f"value of alpha={a} order={o} moved by 1e-6 of scale was accepted")
        if z is not None:
            scaled = np.array(z, dtype=float)
            k = int(np.argmax(scaled))
            scaled[k] *= 1.01
            moved[i] = (a, o, v, t, scaled)
            if not check_family(s, moved):
                problems.append(
                    f"density of alpha={a} order={o} with one weight scaled was accepted")
    return problems
