"""Supremum-side machinery: brute-force oracle, dual norms, witnesses, Kusuoka form.

Everything here works against the defining supremum of the risk family: a
simplex-grid oracle enumerates feasible reweightings directly, the dual
norms are evaluated from their scalar-search representations together with
the extremal pairings attaining them, and the Kusuoka (mixture of tail
means) representation is rebuilt from the attaining density.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distribution import DiscreteDistribution, essinf, esssup, expectation, from_samples
from .entropy import Density
from .evar import RiskSpec, avar, conjugate, evar, evar_inf_high, evar_inf_neg

_GRID_ROW_CAP = 50_000_000
_CHUNK = 2_000_000
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NoFiniteWitnessError(RuntimeError):
    """The dual-norm supremum is approached only as the scalar parameter grows."""


class DegenerateBranchError(RuntimeError):
    """The risk solve ended on a boundary branch; no interior witness exists."""


@functools.lru_cache(maxsize=8)
def _simplex_grid(parts: int, total: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``.

    Read-only and cached for the last few shapes, since the oracle rebuilds
    the same grid for every distribution of a given atom count.
    """
    if math.comb(total + parts - 1, parts - 1) > _GRID_ROW_CAP:
        raise ValueError("atom count too large for this resolution (combinatorial blow-up)")
    rows = np.zeros((1, 0), dtype=np.int32)
    budget = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        counts = budget + 1
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        n_rows = int(counts.sum())
        rows = np.repeat(rows, counts, axis=0)
        ramp = (np.arange(n_rows, dtype=np.int64) - np.repeat(starts, counts)).astype(np.int32)
        rows = np.column_stack([rows, ramp])
        budget = np.repeat(budget, counts) - ramp
    grid = np.column_stack([rows, budget.astype(np.int32)])
    grid.setflags(write=False)
    return grid


def _feasible_mask(Q: np.ndarray, d: DiscreteDistribution, pprime: float,
                   log_beta: float) -> np.ndarray:
    """Entropy-budget feasibility of candidate measures q (rows, q_i = p_i Z_i)."""
    p = d.probs
    if pprime == 1.0:
        safe = np.where(Q > 0.0, Q, 1.0)
        terms = np.where(Q > 0.0, Q * (np.log(safe) - np.log(p)), 0.0)
        return terms.sum(axis=1) <= log_beta
    coeff = p ** (1.0 - pprime)
    s = (Q ** pprime) @ coeff
    bound = math.exp((pprime - 1.0) * log_beta)
    if pprime > 1.0:
        return s <= bound
    return s >= bound


def _refine(d: DiscreteDistribution, q0: np.ndarray, val0: float, pprime: float,
            log_beta: float, resolution: int) -> Tuple[float, np.ndarray]:
    """One local pass at a twentieth of the grid step around the best point."""
    n = d.n_atoms
    if n == 1:
        return val0, q0
    reach = {2: 20, 3: 20, 4: 20, 5: 12, 6: 7}[n]
    axes = [np.arange(-reach, reach + 1, dtype=np.int64)] * (n - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    offs = np.column_stack([m.ravel() for m in mesh])
    last = -offs.sum(axis=1)
    keep = np.abs(last) <= reach
    offs = np.column_stack([offs, last])[keep]
    Q = q0[None, :] + offs.astype(np.float64) / (20.0 * resolution)
    Q = Q[np.all(Q >= 0.0, axis=1)]
    mask = _feasible_mask(Q, d, pprime, log_beta)
    if not mask.any():
        return val0, q0
    obj = Q[mask] @ d.values
    k = int(np.argmax(obj))
    if obj[k] > val0:
        return float(obj[k]), Q[mask][k]
    return val0, q0


def sup_oracle(d: DiscreteDistribution, spec: RiskSpec,
               resolution: int) -> Tuple[float, Density]:
    """Brute-force the defining supremum on a probability-simplex grid.

    Candidate measures q (q_i = p_i Z_i) are enumerated at step
    1/resolution, those inside the regime's entropy budget are kept, and
    E YZ is maximized; one local refinement pass at a twentieth of the step
    follows.  The constant density is always seeded (it is feasible by
    definition), so the result is never below the expectation.  Limited to
    6 atoms; blow-up beyond ~5e7 grid points is rejected.
    """
    if d.n_atoms > 6:
        raise ValueError("brute-force oracle is limited to 6 atoms")
    if resolution < 10:
        raise ValueError("resolution must be at least 10")
    a, p = spec.alpha, spec.order
    if a >= 1.0:
        raise ValueError("alpha must be below 1")
    if not (p > 1.0 or p < 0.0):
        raise ValueError("no entropy-budget regime for this order")
    pprime = conjugate(p)
    log_beta = -math.log1p(-a)
    v, pr = d.values, d.probs

    best_val = expectation(d)
    best_q = pr.copy()
    grid = _simplex_grid(d.n_atoms, resolution)
    for start in range(0, grid.shape[0], _CHUNK):
        Q = grid[start : start + _CHUNK].astype(np.float64) / resolution
        # the constraint is the expensive part; only rows that would improve
        # the running best need it
        improving = (Q @ v) > best_val
        if not improving.any():
            continue
        Q = Q[improving]
        Q = Q[_feasible_mask(Q, d, pprime, log_beta)]
        if Q.shape[0] == 0:
            continue
        obj = Q @ v
        k = int(np.argmax(obj))
        if obj[k] > best_val:
            best_val = float(obj[k])
            best_q = Q[k]
    best_val, best_q = _refine(d, best_q, best_val, pprime, log_beta, resolution)
    return best_val, Density(d, best_q / pr)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-11) -> Tuple[float, float]:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while (hi - lo) > tol * (1.0 + 0.5 * abs(lo + hi)):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    t = 0.5 * (lo + hi)
    cands = [(f1, x1), (f2, x2), (f(t), t)]
    fv, tv = max(cands, key=lambda c: c[0])
    return tv, fv


def _scan_max(ratio, ts: np.ndarray, tol: float) -> Tuple[float, float, np.ndarray]:
    """Maximize a vectorized ratio: grid scan, then golden section on the best cell.

    Returns ``(t_best, r_best, scan values)``.
    """
    vals = ratio(ts)
    if not np.any(vals > -np.inf):
        raise ValueError("dual-norm denominator nonpositive on the search range")
    k = int(np.argmax(vals))
    t_best, r_best = _golden_max(lambda t: float(ratio(t)), float(ts[max(k - 1, 0)]),
                                 float(ts[min(k + 1, ts.size - 1)]), tol)
    return t_best, r_best, vals


def _dual_norm_parts(d: DiscreteDistribution, weights: np.ndarray, alpha: float,
                     p: float, tol: float = 1e-11) -> Tuple[float, Optional[float]]:
    """Scalar-search dual norm; returns (value, finite optimizer t or None).

    ``None`` marks the supremum approached only as t -> inf, where the
    ratio tends to E|Z|.  Each regime's ratio takes a scalar or an array of
    t, so the scan and the refinement evaluate the same formula.
    """
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    w = np.abs(np.asarray(weights, dtype=float).ravel())
    if w.shape != d.values.shape:
        raise ValueError("weights must match the distribution's atoms")
    pr = d.probs
    pprime = conjugate(p)
    limit = float(np.dot(pr, w))

    if p > 1.0 and not math.isinf(p):
        beta_pow = (1.0 / (1.0 - alpha)) ** (1.0 / p)
        W = np.where(w > 0.0, w ** (pprime - 1.0), 0.0)

        def ratio(ts):
            t = np.asarray(ts, dtype=float)
            A = np.maximum(t[..., None] + W, 0.0)
            num = (A * w) @ pr
            den = t + beta_pow * np.power(((A - t[..., None]) ** p) @ pr, 1.0 / p)
            valid = den > 1e-300
            return np.where(valid, num / np.where(valid, den, 1.0), -np.inf)

        s = 10.0 * (1.0 + float(W.max()))
        t_best, r_best, _ = _scan_max(ratio, np.linspace(-s, s, 1001), tol)
        if r_best >= limit:
            return float(r_best), float(t_best)
        return limit, None

    if p < 0.0 and not math.isinf(p):
        beta_pow = math.exp(-math.log1p(-alpha) / p)
        W = np.where(w > 0.0, w ** (pprime - 1.0), math.inf)

        def ratio(ts):
            t = np.asarray(ts, dtype=float)
            num = np.maximum(t[..., None] - W, 0.0) @ (pr * w)
            clipped = np.minimum(W, t[..., None])
            den = t - beta_pow * np.power((clipped ** p) @ pr, 1.0 / p)
            valid = np.all(clipped > 0.0, axis=-1) & (den > 1e-300)
            return np.where(valid, num / np.where(valid, den, 1.0), -np.inf)

        lo = float(W.min())
        finite = W[np.isfinite(W)]
        s = float(finite.max())
        if s <= lo:
            # single distinct height: only the t -> inf limit remains
            return limit, None
        t_best, r_best, vals = _scan_max(ratio, np.linspace(lo + (s - lo) * 1e-9, s, 1001), tol)
        # beyond the largest height the ratio is a monotone Mobius function,
        # so its supremum there is one of the two ends
        if vals[-1] >= r_best:
            t_best, r_best = s, float(vals[-1])
        if r_best >= limit:
            return float(r_best), float(t_best)
        return limit, None

    raise ValueError("dual norm defined for finite p > 1 or p < 0")


def dual_norm(z: Density, alpha: float, p: float) -> float:
    """Dual norm of a density against the risk-induced norm, by scalar search.

    Both regimes scan a one-parameter family of extremal pairings (clipped
    at zero, so maximizers vanishing on some atoms are covered), refine the
    best grid cell by golden section, and always include the t -> inf limit
    E|Z| as a candidate.  Above the largest transformed weight the p < 0
    ratio is a monotone Mobius function, so only its two ends matter there.
    """
    return _dual_norm_parts(z.dist, z.weights, alpha, p)[0]


def dual_norm_raw(d: DiscreteDistribution, weights: np.ndarray, alpha: float,
                  p: float) -> float:
    """Dual norm of an arbitrary (signed, unnormalized) per-atom functional."""
    return _dual_norm_parts(d, np.asarray(weights, dtype=float), alpha, p)[0]


def _sign(x: np.ndarray) -> np.ndarray:
    # sign with the +1 convention at 0, so witnesses keep the support of the
    # attaining density on zero atoms
    return np.where(x < 0.0, -1.0, 1.0)


def hb_density_for(d: DiscreteDistribution, spec: RiskSpec) -> np.ndarray:
    """Per-atom functional Z' attaining E YZ' = risk(|Y|) * dual_norm(Z').

    Returned unnormalized (both sides of the equality are 1-homogeneous in
    Z', so any positive multiple attains it too).  Requires the risk solve
    of |Y| to reach an interior optimizer; boundary branches raise
    ``DegenerateBranchError``.
    """
    a, p = spec.alpha, spec.order
    dabs = from_samples(np.abs(d.values), d.probs)
    if float(dabs.probs[-1]) >= 1.0 - a:
        raise DegenerateBranchError("risk of |Y| is attained on the top atom; no interior witness")
    if p > 1.0 and not math.isinf(p):
        res = evar_inf_high(dabs, a, p)
        t = res.t_star
        return _sign(d.values) * np.maximum(np.abs(d.values) - t, 0.0) ** (p - 1.0)
    if p < 0.0 and not math.isinf(p):
        res = evar_inf_neg(dabs, a, p)
        t = res.t_star
        return _sign(d.values) * (t - np.abs(d.values)) ** (p - 1.0)
    raise ValueError("witness defined for finite p > 1 or p < 0")


def hb_witness_for(z: Density, alpha: float, p: float) -> np.ndarray:
    """Per-atom variable Y' attaining E Y'Z = risk(|Y'|) * dual_norm(Z).

    For p > 1 with the supremum only in the t -> inf limit the constant
    witness is returned (exact for unit-mean densities).  For p < 0 that
    case has no finite witness and raises ``NoFiniteWitnessError``.
    """
    value, t = _dual_norm_parts(z.dist, z.weights, alpha, p)
    w = z.weights
    pprime = conjugate(p)
    if p > 1.0 and not math.isinf(p):
        if t is None:
            return np.ones(z.dist.n_atoms)
        W = np.where(w > 0.0, np.abs(w) ** (pprime - 1.0), 0.0)
        return _sign(w) * np.maximum(t + W, 0.0)
    if p < 0.0 and not math.isinf(p):
        if t is None:
            raise NoFiniteWitnessError(
                "supremum approached only as t -> inf; the dual norm equals E|Z|"
            )
        W = np.where(w > 0.0, np.abs(w) ** (pprime - 1.0), math.inf)
        return _sign(w) * np.maximum(t - W, 0.0)
    raise ValueError("witness defined for finite p > 1 or p < 0")


def alt_dual_check(d: DiscreteDistribution, spec: RiskSpec, trials: int,
                   seed: int = 0) -> bool:
    """Spot-check the alternative dual representation over unit dual-ball densities.

    Samples random densities, keeps those with dual norm at most 1 (within
    1e-9) and verifies their pairing never beats the risk value; also checks
    the attaining density itself sits in the unit dual ball (within 1e-6).
    """
    res = evar(d, spec)
    ok = True
    if res.density is not None:
        ok = ok and dual_norm(res.density, spec.alpha, spec.order) <= 1.0 + 1e-6
    rng = np.random.default_rng(seed)
    n = d.n_atoms
    payoff = d.probs * d.values
    for _ in range(trials):
        q = rng.dirichlet(np.ones(n))
        z = Density(d, q / d.probs)
        if dual_norm(z, spec.alpha, spec.order) <= 1.0 + 1e-9:
            ok = ok and float(np.dot(payoff, z.weights)) <= res.value + 1e-6
    return bool(ok)


@dataclass(frozen=True)
class KusuokaMeasure:
    """Discrete mixing measure over tail levels plus its distortion profile.

    ``levels``/``masses`` give the measure; ``breakpoints``/``heights``
    describe the right-continuous step function sigma on [0, 1) (the
    quantile profile of the attaining density).  Total mass and the
    integral of sigma are both 1.
    """

    levels: np.ndarray
    masses: np.ndarray
    breakpoints: np.ndarray
    heights: np.ndarray

    def __post_init__(self) -> None:
        lv = np.asarray(self.levels, dtype=float).ravel()
        ms = np.asarray(self.masses, dtype=float).ravel()
        bp = np.asarray(self.breakpoints, dtype=float).ravel()
        ht = np.asarray(self.heights, dtype=float).ravel()
        if lv.shape != ms.shape or bp.shape != ht.shape:
            raise ValueError("levels/masses and breakpoints/heights must pair up")
        if np.any(lv < 0.0) or np.any(lv >= 1.0):
            raise ValueError("levels must lie in [0,1)")
        if np.any(ms < 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(ms.sum() - 1.0) > 1e-8:
            raise ValueError("total mass must be 1")
        if bp.size == 0 or bp[0] != 0.0 or np.any(np.diff(bp) <= 0.0) or np.any(bp >= 1.0):
            raise ValueError("breakpoints must start at 0, increase strictly and stay below 1")
        if np.any(np.diff(ht) < 0.0):
            raise ValueError("the distortion must be nondecreasing")
        seg = np.append(bp, 1.0)
        integral = float(np.dot(np.diff(seg), ht))
        if abs(integral - 1.0) > 1e-8:
            raise ValueError("the distortion must integrate to 1")
        for name, arr in (("levels", lv), ("masses", ms),
                          ("breakpoints", bp), ("heights", ht)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def atoms(self):
        return [(float(l), float(m)) for l, m in zip(self.levels, self.masses)]

    @property
    def distortion(self):
        return [(float(u), float(h)) for u, h in zip(self.breakpoints, self.heights)]


def _measure_from_density(z: Density) -> KusuokaMeasure:
    pr = z.dist.probs
    w = z.weights
    order = np.argsort(w, kind="stable")
    ws, ps = w[order], pr[order]
    breakpoints = [0.0]
    heights = [float(ws[0])]
    levels = []
    masses = []
    if ws[0] > 0.0:
        levels.append(0.0)
        masses.append(float(ws[0]))
    cum = float(ps[0])
    for i in range(1, ws.size):
        if ws[i] > heights[-1]:
            jump = float(ws[i]) - heights[-1]
            breakpoints.append(cum)
            heights.append(float(ws[i]))
            levels.append(cum)
            masses.append((1.0 - cum) * jump)
        cum += float(ps[i])
    return KusuokaMeasure(
        np.array(levels), np.array(masses), np.array(breakpoints), np.array(heights)
    )


def kusuoka(d: DiscreteDistribution, spec: RiskSpec) -> KusuokaMeasure:
    """Mixture-of-tail-means representation built from the attaining density.

    The distortion is the quantile profile of the attaining density; the
    mixing measure puts the profile's starting height at level 0 and mass
    (1 - u) * jump at each of its jump points u.  Available whenever the
    risk solve returns a density (boundary indicator branches included).
    """
    res = evar(d, spec)
    if res.density is None:
        raise ValueError("no attaining density in this regime")
    return _measure_from_density(res.density)


def kusuoka_evaluate(m: KusuokaMeasure, d: DiscreteDistribution) -> float:
    """Integrate tail means of the distribution against the mixing measure."""
    return float(
        sum(mass * avar(d, float(level)).value for level, mass in zip(m.levels, m.masses))
    )
