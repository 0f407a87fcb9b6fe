"""Independent brute-force oracles used to pin expected values in tests.

Everything here computes by direct enumeration, dense grids or finite
differences with plain numpy powers, deliberately avoiding the library's
log-space code paths.  Three exceptions are kept as references: the
allocating log-moment kernel and the solve in theta built the same way,
exact twins of the library's solve that writes into caller-owned scratch;
the finite-order solve in t and the Shannon tilt that the solve in theta
replaced, for values; and the supremum oracle in one pass, for its chunked
scan that tests the budget only on improving rows.
"""

from __future__ import annotations

import math

import numpy as np

from renyi_risk import DiscreteDistribution, RiskSpec, conjugate, expectation, from_samples
from renyi_risk.duality import _feasible_mask, _simplex_grid
from renyi_risk.evar import _top_atom_test, _unit_space
from renyi_risk.solver import find_root


def avar_grid_oracle(d: DiscreteDistribution, alpha: float, step: float = 1e-4,
                     pad: float = 1.0) -> float:
    """Minimize t + E(Y-t)_+/(1-alpha) over a dense t-grid.

    The objective is piecewise linear with kinks at the atoms, so the atom
    values are added to the grid and the scan is exact up to rounding.
    """
    v, p = d.values, d.probs
    ts = np.concatenate([np.arange(v[0] - pad, v[-1] + pad + step, step), v])
    plus = np.maximum(v[None, :] - ts[:, None], 0.0)
    obj = ts + (plus @ p) / (1.0 - alpha)
    return float(obj.min())


def objective_high(d: DiscreteDistribution, alpha: float, p: float, t: float) -> float:
    """t + (1/(1-alpha))^(1/p) * (E (Y-t)_+^p)^(1/p), direct powers."""
    plus = np.maximum(d.values - t, 0.0)
    moment = float(np.dot(d.probs, plus ** p))
    return t + (1.0 / (1.0 - alpha)) ** (1.0 / p) * moment ** (1.0 / p)


def objective_neg(d: DiscreteDistribution, alpha: float, p: float, t: float) -> float:
    """t - (1/(1-alpha))^(1/p) * (E (t-Y)^p)^(1/p) for t above every atom."""
    gap = t - d.values
    moment = float(np.dot(d.probs, gap ** p))
    return t - (1.0 / (1.0 - alpha)) ** (1.0 / p) * moment ** (1.0 / p)


def grid_min(f, lo: float, hi: float, num: int = 200001) -> float:
    ts = np.linspace(lo, hi, num)
    return min(f(float(t)) for t in ts)


def chernoff_shannon_oracle(d: DiscreteDistribution, alpha: float) -> float:
    """min over z > 0 of (log E e^(zY) + log(1/(1-alpha))) / z.

    Log-spaced scan plus golden-section polish; independent of the tilting
    solve it cross-checks.
    """
    log_beta = -math.log1p(-alpha)
    logp = np.log(d.probs)
    v = d.values
    spread = max(float(v[-1] - v[0]), 1e-9)

    def g(z: float) -> float:
        s = logp + z * v
        smax = s.max()
        lam = smax + math.log(np.exp(s - smax).sum())
        return (lam + log_beta) / z

    zs = np.exp(np.linspace(math.log(1e-4 / spread), math.log(1e6 / spread), 4001))
    vals = np.array([g(float(z)) for z in zs])
    k = int(np.argmin(vals))
    lo, hi = float(zs[max(k - 1, 0)]), float(zs[min(k + 1, zs.size - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > 1e-13 * (1.0 + abs(lo)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = g(x2)
    return min(f1, f2, float(vals[k]))


def dual_norm_grid(d: DiscreteDistribution, weights, alpha: float, p: float,
                   num: int = 4001, tail: int = 2001, span: float = 1e12) -> float:
    """Dual norm as the best ratio N(t)/D(t) on a dense t-grid, golden-polished.

    With W = |Z|^(p'-1) where Z != 0 (0 elsewhere for p > 1, inf for
    p < 0), Y(t) = (t + W)_+ or (t - W)_+, N = E|Z| Y(t) and D the risk
    objective of Y(t) at t, all in plain powers.  Each ratio is a lower bound
    on the dual norm.  The grid is linear over [-max W, 0] for p > 1 (for
    t >= 0 the ratio is monotone) and over [min W, max finite W] for p < 0,
    plus a log-spaced grid from the same start to ``span`` times the
    smallest W above zero (p > 1) or the largest finite W (p < 0).
    The best cell is polished by golden section, and the t -> inf limit
    E|Z| is a candidate.
    """
    w = np.abs(np.asarray(weights, dtype=float))
    pr = d.probs
    pos = w > 0.0
    pp = p / (p - 1.0)
    W = np.full(w.size, 0.0 if p > 1.0 else math.inf)
    W[pos] = w[pos] ** (pp - 1.0)
    beta_pow = (1.0 / (1.0 - alpha)) ** (1.0 / p)

    def ratio(ts):
        t = np.asarray(ts, dtype=float)[:, None]
        if p > 1.0:
            y = np.maximum(t + W, 0.0)
            den = t[:, 0] + beta_pow * ((np.maximum(W, -t) ** p) @ pr) ** (1.0 / p)
        else:
            y = np.maximum(t - W, 0.0)
            den = t[:, 0] - beta_pow * ((np.minimum(W, t) ** p) @ pr) ** (1.0 / p)
        return (y @ (pr * w)) / den

    # a linear grid and a log-spaced one, so that no spread of W leaves a
    # peak between two points
    if p > 1.0:
        top = W.max()
        ts = np.concatenate([np.linspace(-top, 0.0, num),
                             -np.geomspace(top, W[pos].min() / span, tail)])
    else:
        low, top = W.min(), W[pos].max()
        ts = np.concatenate([np.linspace(low, top, num)[1:],
                             np.geomspace(low, top * span, tail)[1:]])
    ts = np.sort(ts)
    vals = ratio(ts)
    k = int(np.argmax(vals))
    lo, hi = float(ts[max(k - 1, 0)]), float(ts[min(k + 1, ts.size - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = ratio([x1])[0], ratio([x2])[0]
    while hi - lo > 1e-14 * (abs(lo) + abs(hi)):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = ratio([x1])[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = ratio([x2])[0]
    return float(max(vals[k], f1, f2, np.dot(pr, w)))


def bisect_root(g, lo: float, hi: float, tol: float):
    """Reference for ``solver.find_root``: the same bracket growth and stop
    rule, then plain bisection.  Returns ``(root, steps)``."""
    while g(lo) >= 0.0:
        lo = hi - 2.0 * (hi - lo)
    while g(hi) < 0.0:
        hi = lo + 2.0 * (hi - lo)
    steps = 0
    while (hi - lo) > tol * (1.0 + abs(lo) + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return 0.5 * (lo + hi), steps


def central_diff(fun, x: float, h: float) -> float:
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def rand_dist(rng: np.random.Generator, n: int, lo: float = 0.0, hi: float = 10.0,
              concentration: float = 2.0, max_top: float | None = None) -> DiscreteDistribution:
    """Random distribution with distinct sorted values and floored probabilities.

    ``max_top`` caps the probability of the largest atom (to force interior
    regimes when needed).
    """
    for _ in range(200):
        v = np.sort(rng.uniform(lo, hi, n))
        if np.any(np.diff(v) < 1e-6):
            continue
        p = rng.dirichlet(np.ones(n) * concentration)
        if p.min() < 1e-3:
            continue
        if max_top is not None and p[-1] >= max_top:
            continue
        return from_samples(v, p)
    raise RuntimeError("could not draw a distribution with the requested shape")


def log_gaps_alloc(values, logp, t: float, gap: bool = False):
    """Atoms where (Y - t)_+ is positive, or (t - Y)_+ when ``gap``: their
    log-probabilities and the log of that positive part, freshly allocated."""
    if gap:
        i = int(np.searchsorted(values, t, side="left"))
        return logp[:i], np.log(t - values[:i])
    i = int(np.searchsorted(values, t, side="right"))
    return logp[i:], np.log(values[i:] - t)


def exp_shifted_alloc(terms):
    """The allocating ``distribution._exp_shifted``: ``terms`` is left intact."""
    m = float(terms.max()) if terms.size else -math.inf
    return m, (terms[:0] if m == -math.inf else np.exp(terms - m))


def log_moments_alloc(logp, logx, k: float):
    """The allocating ``distribution._log_moments``, term for term."""
    m, e = exp_shifted_alloc(logp + k * logx)
    return m + math.log(float(e.sum())) if e.size else m


def evar_power_alloc(d: DiscreteDistribution, alpha: float, p: float, tol: float):
    """The finite-order solve in t that preceded the solve in theta, kept as
    a reference for values: ``(value, t_star, iterations, density weights)``
    for an interior solve, or None when the top-atom pre-test takes the
    boundary branch.  It brackets t' on [-2, 0] (p > 1) or [0, 1] (p < 0)
    and roots -log(1 - derivative) from the log-moments of orders p and
    p - 1."""
    gap = p < 0.0
    top, log_beta, logp = _top_atom_test(d, alpha)
    if top >= 0.0:
        return None
    m, s, y = _unit_space(d)

    def moments(t: float):
        logp_t, logx = log_gaps_alloc(y, logp, t, gap=gap)
        return logx, log_moments_alloc(logp_t, logx, p), log_moments_alloc(logp_t, logx, p - 1.0)

    def fprime(t: float) -> float:
        if gap and t <= 0.0:
            return -top / p
        _, lk, lk1 = moments(t)
        if lk == -math.inf:
            return math.inf
        return -(log_beta / p + (1.0 / p - 1.0) * lk + lk1)

    t, iterations = find_root(fprime, *((0.0, 1.0) if gap else (-2.0, 0.0)), tol)
    logx, lk, lk1 = moments(t)
    norm = math.exp(log_beta / p + lk / p)
    value = min(0.0, t - norm if gap else t + norm)
    w = np.zeros(d.n_atoms)
    w[d.n_atoms - logx.size:] = np.exp((p - 1.0) * logx - lk1)
    return m + s * value, m + s * t, iterations, w


def evar_shannon_alloc(d: DiscreteDistribution, alpha: float, theta_tol: float):
    """The Shannon solve by exponential tilting that preceded the solve in
    theta, kept as a reference for values: ``(value, t_star, iterations,
    density weights)`` for an interior solve, or None when the top-atom
    pre-test takes the boundary branch.  It roots the tilt's entropy-budget
    gap in theta and reads the value as the tilted mean."""
    top, log_beta, logp = _top_atom_test(d, alpha)
    if top >= 0.0:
        return None
    m, s, y = _unit_space(d)

    def tilt(theta: float):
        top_a, e = exp_shifted_alloc(logp + theta * y)
        total = float(e.sum())
        return top_a + math.log(total), float(np.dot(e, y)) / total

    def budget_gap(theta: float) -> float:
        lam, mean = tilt(theta)
        return theta * mean - lam - log_beta

    theta, iterations = find_root(budget_gap, 0.0, 1.0, theta_tol)
    lam, value = tilt(theta)
    return m + s * value, theta / s, iterations, np.exp(theta * y - lam)


def evar_theta_alloc(d: DiscreteDistribution, alpha: float, p: float, tol: float):
    """``evar.evar_power``'s solve in s = log theta on freshly allocated
    arrays, term for term, for every order (finite p > 1, p < 0, +inf):
    ``(value, t_star, iterations, density weights)`` for an interior solve,
    or None when the top-atom pre-test takes the boundary branch."""
    top, log_beta, logp = _top_atom_test(d, alpha)
    if top >= 0.0:
        return None
    m, spread, y = _unit_space(d)
    finite = not math.isinf(p)
    s_max = 700.0 + min(0.0, math.log(abs(p)))

    def scaled(theta: float):
        # theta y / p on the atoms with u = 1 + theta y / p > 0; theta y at +inf
        x = (theta / p if finite else theta) * y
        i = int(np.searchsorted(x, -1.0, side="right")) if finite and p > 0.0 else 0
        return i, x[i:]

    def moments(theta: float):
        i, x = scaled(theta)
        top_a, e = exp_shifted_alloc(logp[i:] + (p * np.log1p(x) if finite else x))
        total = float(e.sum())
        q = x / (x + 1.0) if finite else x
        return top_a + math.log(total), float(np.dot(e, q)) / total

    def h_at(L: float, mean: float) -> float:
        return log_beta + L + (p * math.log1p(-mean) if finite else -mean)

    def h(s: float) -> float:
        return top if s > s_max else h_at(*moments(math.exp(s)))

    s, iterations = find_root(lambda s: -h(s), 1.0, 3.0, tol)
    theta = math.exp(min(s, s_max))
    L, mean = moments(theta)
    c = log_beta + L
    r = c / p
    value = min(0.0, c / theta * (math.expm1(r) / r if r != 0.0 else 1.0))
    i, x = scaled(theta)
    if finite:
        e = (p - 1.0) * np.log1p(x) - (L + math.log1p(-mean))
        t_star = m - spread * (p / theta)
    else:
        e = x - L
        t_star = theta / spread
    w = np.zeros(d.n_atoms)
    w[i:] = np.exp(e)
    return m + spread * value, t_star if math.isfinite(t_star) else None, iterations, w


def conjugate_entropy(d: DiscreteDistribution, weights, p: float) -> float:
    """Renyi entropy of the density at the conjugate order p' = p/(p - 1).

    Written with k = p' - 1 = 1/(p - 1), taken from p, so that it keeps its
    precision where p' rounds to 1: with S = E Z and Q the probability
    P Z / S, it is log1p(E_Q[expm1(k log Z)]) / k - log S, and
    E_Q[log Z] - log S at p = +inf (k = 0).  Dividing by S keeps a rounding
    of E Z away from 1 from being multiplied by 1/k.  Compensated sums;
    atoms with Z = 0 are dropped.
    """
    z = np.asarray(weights, dtype=float)
    pos = z > 0.0
    pz = d.probs[pos] * z[pos]
    total = math.fsum(pz.tolist())
    q, logz = pz / total, np.log(z[pos])
    if math.isinf(p):
        return math.fsum((q * logz).tolist()) - math.log(total)
    k = 1.0 / (p - 1.0)
    return math.log1p(math.fsum((q * np.expm1(k * logz)).tolist())) / k - math.log(total)


def refine_offsets_reference(n: int) -> np.ndarray:
    """The refinement's integer steps for n atoms, built by an int64 meshgrid."""
    reach = {2: 20, 3: 20, 4: 20, 5: 12, 6: 7}[n]
    axes = [np.arange(-reach, reach + 1, dtype=np.int64)] * (n - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    offs = np.column_stack([m.ravel() for m in mesh])
    last = -offs.sum(axis=1)
    return np.column_stack([offs, last])[np.abs(last) <= reach]


def refine_reference(d: DiscreteDistribution, q0: np.ndarray, val0: float, pprime: float,
                     log_beta: float, resolution: int):
    """The oracle's local refinement in one pass: the budget tested on every
    nonnegative row, then one argmax."""
    if d.n_atoms == 1:
        return val0, q0
    offs = refine_offsets_reference(d.n_atoms)
    Q = q0[None, :] + offs.astype(np.float64) / (20.0 * resolution)
    Q = Q[np.all(Q >= 0.0, axis=1)]
    Q = Q[_feasible_mask(Q, d, pprime, log_beta)]
    if Q.shape[0] == 0:
        return val0, q0
    obj = Q @ d.values
    k = int(np.argmax(obj))
    if obj[k] > val0:
        return float(obj[k]), Q[k]
    return val0, q0


def sup_oracle_reference(d: DiscreteDistribution, spec: RiskSpec, resolution: int):
    """``sup_oracle`` without chunks or pruning: the whole simplex grid as one
    float array, the budget tested on every row, one argmax, then
    ``refine_reference``.  Returns (value, q) with q_i = p_i Z_i."""
    pprime = conjugate(spec.order)
    log_beta = -math.log1p(-spec.alpha)
    Q = _simplex_grid(d.n_atoms, resolution).astype(np.float64) / resolution
    Q = Q[_feasible_mask(Q, d, pprime, log_beta)]
    best_val, best_q = expectation(d), d.probs.copy()
    obj = Q @ d.values
    k = int(np.argmax(obj))
    if obj[k] > best_val:
        best_val, best_q = float(obj[k]), Q[k]
    return refine_reference(d, best_q, best_val, pprime, log_beta, resolution)
