"""Independent references used to pin expected values in tests.

Most compute by enumeration, dense grids or plain numpy powers, away from
the library's log-space code paths (``power_norm`` by one ``math.fsum``).
The risk value of every order is pinned
by ``evar_decimal`` and Renyi entropies by ``renyi_entropy_decimal``, at 60
digits from the atoms and probabilities alone; the tail mean and the Kusuoka
measure by exact sums, the Kusuoka integral by one tail mean per level.  Two
twins of library code are kept for their bits, not their values: the solve
in theta on allocating arrays, and the supremum oracle in one pass.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

import numpy as np

from renyi_risk import DiscreteDistribution, RiskSpec, evar, expectation, from_samples
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


def avar_exact(d: DiscreteDistribution, alpha: float) -> float:
    """The tail mean in rational arithmetic on the stored probabilities.

    The (1 - alpha) tail is filled from the top atom down, the last atom
    taking what is left of 1 - alpha, and the one rounding is the return.
    """
    room = Fraction(1) - Fraction(alpha)
    total = Fraction(0)
    for v, p in zip(d.values[::-1].tolist(), d.probs[::-1].tolist()):
        take = min(Fraction(p), room)
        total += take * Fraction(v)
        room -= take
        if room == 0:
            break
    return float(total / (Fraction(1) - Fraction(alpha)))


def power_norm(d: DiscreteDistribution, p: float) -> float:
    """(E |Y|^p)^(1/p) as one ``math.fsum`` of the atoms' powers; p = +inf
    gives max |Y|.  An atom at 0 contributes nothing at p > 0 and raises
    ``ZeroDivisionError`` at p < 0."""
    a = [abs(v) for v in d.values.tolist()]
    if p == math.inf:
        return max(a)
    return math.fsum(q * x ** p for q, x in zip(d.probs.tolist(), a)) ** (1.0 / p)


def log_norm_constants_decimal(alpha: float, p: float):
    """(log lower, log upper) of ``norm_equivalence_bounds`` at ``PREC`` digits,
    lower before its cap at 1: (p-1)/p log(beta^(1/(p-1)) - 1) and log(beta)/p
    for p > 1, log(1 - beta^(1/p)) and 0 for p < 0.  beta^x - 1 is summed as
    its series where |x| < 1e-12, where 1 + x rounds to 1, so it keeps its digits."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = PREC, MAX_EMAX, MIN_EMIN
        log_beta, order = -(1 - Decimal(alpha)).ln(), Decimal(p)
        x = log_beta / (order - 1 if p > 1.0 else order)
        small = abs(x) < Decimal("1e-12")
        grow = x * (1 + x / 2 + x * x / 6 + x ** 3 / 24) if small else x.exp() - 1
        if p > 1.0:
            return (order - 1) / order * grow.ln(), log_beta / order
        return (-grow).ln(), Decimal(0)


def kusuoka_reference(weights: np.ndarray, probs: np.ndarray):
    """``(levels, masses, breakpoints, heights)`` of the Kusuoka measure of a
    density, atom by atom in increasing Z, every tail an exact ``math.fsum``.

    Each new value h of Z is a height whose breakpoint and level are
    1 - P(Z >= h) and whose mass is P(Z >= h) times the jump; the smallest
    value starts the profile at 0 and is the mass at level 0 when positive.
    """
    order = np.argsort(weights, kind="stable")
    ws, ps = weights[order].tolist(), probs[order].tolist()
    levels, masses = ([0.0], [ws[0]]) if ws[0] > 0.0 else ([], [])
    breakpoints, heights = [0.0], [ws[0]]
    for i in range(1, len(ws)):
        if ws[i] > heights[-1]:
            tail = math.fsum(ps[i:])
            levels.append(1.0 - tail)
            masses.append(tail * (ws[i] - heights[-1]))
            breakpoints.append(1.0 - tail)
            heights.append(ws[i])
    return tuple(np.array(x) for x in (levels, masses, breakpoints, heights))


def kusuoka_evaluate_loop(m, d: DiscreteDistribution) -> float:
    """The Kusuoka integral level by level: one tail mean (order 1) per atom
    of the mixing measure, weighted by its mass.  O(levels x atoms)."""
    return float(sum(mass * evar(d, RiskSpec(float(lv), 1.0)).value
                     for lv, mass in zip(m.levels, m.masses)))


PREC = 60
DecimalRisk = collections.namedtuple(
    "DecimalRisk", "value t_star atom offset density entropy gap evaluations")


def _entropy(probs, z, logz, q):
    """Renyi entropy of order q of Z / E Z from P, Z and log Z (``Decimal``)."""
    mean = sum(p * x for p, x in zip(probs, z))
    if q == 1:
        return sum(p * x * lx for p, x, lx in zip(probs, z, logz)) / mean - mean.ln()
    m = max(q * x for x in logz)
    log_moment = m + sum(p * (q * x - m).exp() for p, x in zip(probs, logz)).ln()
    return (log_moment - q * mean.ln()) / (q - 1)


def renyi_entropy_decimal(probs, weights, orders) -> list:
    """Renyi entropies of the density normalized by its mean, Z / E Z, at
    each finite order, at ``PREC`` digits; zero weights drop out."""
    with localcontext() as ctx:
        ctx.prec = PREC
        P, z = zip(*[(Decimal(p), Decimal(w)) for p, w in zip(probs, weights) if w > 0.0])
        logz = [w.ln() for w in z]
        return [_entropy(P, z, logz, Decimal(q)) for q in orders]


def _root(h, x, step, tol, ftol, cap=None):
    """A root of the nondecreasing h: steps of step, 2 step, ... from x toward
    it until h changes sign (upward never past cap = (x, h(x)), h >= 0), then
    false position with Anderson-Bjorck weights, bisecting when two steps
    have not halved the bracket, to |h| <= ftol or a bracket within tol of
    its ends.  Returns the evaluated point of least |h|."""
    seen = []

    def f(x):
        seen.append((abs(fx := h(x)), x))
        return x, fx

    lo = hi = f(x)
    while lo[1] >= 0:
        hi, lo, step = lo, f(lo[0] - step), 2 * step
    while hi[1] < 0:
        up = hi[0] + step
        lo, hi, step = hi, cap if cap and up >= cap[0] else f(up), 2 * step
    (a, fa), (b, fb), side, widths = lo, hi, 0, []
    while min(seen)[0] > ftol and b - a > tol * (1 + abs(a) + abs(b)):
        widths.append(b - a)
        x = a - fa * (b - a) / (fb - fa)
        if not a < x < b or (len(widths) > 2 and widths[-1] > widths[-3] / 2):
            x = (a + b) / 2
        x, fx = f(x)
        if fx < 0:
            if side < 0:  # a moved twice in a row: weigh b's value down
                fb = fb * m if (m := 1 - fx / fa) > 0 else fb / 2
            a, fa, side = x, fx, -1
        else:
            if side > 0:
                fa = fa * m if (m := 1 - fx / fb) > 0 else fa / 2
            b, fb, side = x, fx, 1
    return min(seen)[1]


def _solve(y, probs, log_beta, p, exp, ln, start, tol, ftol):
    """The root of h on the standardized atoms y (esssup 0, spread 1), in
    ``float`` for a start or in ``Decimal``: ``(k, sigma, parts, count)``.

    Finite p: h = log beta + p log E g^(p-1) - (p-1) log E g^p with g the
    gaps |y - t| that count: above t = y_k - e^sigma for p > 1, in the cell
    below atom k found by bisection over the atoms; every atom for p < 0,
    t = e^sigma.  At +inf (p None), h = theta E_theta[y] - log E e^(theta y)
    - log beta, theta = e^sigma.  h is nondecreasing in sigma.  A ``start``
    (k, sigma) is probed first; a wrong one only costs evaluations.
    """
    n, memo, num = len(y), {}, type(log_beta)

    def h(k, sigma):
        # the log terms a: (p - 1) log g over the gaps, atom k's e^sigma; theta y at +inf
        if p is None:
            idx, gaps, a = list(range(n)), y, [exp(sigma) * x for x in y]
        else:
            idx = list(range(k + 1, n)) if p > 0 else list(range(n - 1))
            gaps = [abs(y[i] - y[k]) for i in idx]
            if sigma is not None:
                delta = exp(sigma)
                idx, gaps = [k] + idx, [delta] + [g + delta for g in gaps]
            lg = [ln(g) for g in gaps] if sigma is None else [sigma] + [ln(g) for g in gaps[1:]]
            a = [(p - 1) * x for x in lg]
        m = max(a)
        e = [probs[i] * exp(x - m) for i, x in zip(idx, a)]
        s1, s2 = sum(e), sum(w * g for w, g in zip(e, gaps))
        fx = (exp(sigma) * s2 / s1 - m - ln(s1) - log_beta if p is None
              else log_beta + m + p * ln(s1) - (p - 1) * ln(s2))
        memo[k, sigma] = fx, (idx, a, m, e, s1, s2)
        return fx

    k, cap = n - 1, None
    if p is not None and p > 0:
        lo, hi = -1, n - 1  # h >= 0 as t falls below y_lo, h < 0 at t = y_hi
        probes = [start[0] - 1, start[0]] if start else []
        while hi - lo > 1:
            j = probes.pop(0) if probes else (lo + hi) // 2
            if lo < j < hi:
                lo, hi = (j, hi) if h(j, None) >= 0 else (lo, j)
        k, cap = hi, (ln(y[hi] - y[hi - 1]), memo[hi - 1, None][0]) if hi > 0 else None
    if start and start[0] == k:
        x, step = num(start[1]), num(1 + abs(start[1])) / 10 ** 10
    elif p is None:
        x, step = num(0), 1
    else:
        x = cap[0] if cap else ln(abs(p)) if abs(p) > 1 else num(0)
        step = max(1, 1 / (abs(p - 1) if p > 0 else abs(p)))
    sigma = _root(lambda s: h(k, s), x, step, tol, ftol, cap)
    return k, sigma, memo[k, sigma][1], len(memo)


def evar_decimal(d: DiscreteDistribution, alpha: float, p) -> DecimalRisk:
    """The risk value of order p > 1 or p < 0 (|p| <= 1e15, as h cancels
    about log10 |p| of the digits), or +inf, at ``PREC`` digits from
    ``d.values`` and ``d.probs`` alone.

    beta P(Y = esssup) >= 1 is the boundary branch: esssup, attained by the
    top atom's indicator.  Otherwise t + beta^(1/p) ||(Y - t)_+||_p (p > 1),
    t - beta^(1/p) ||t - Y||_p (p < 0) or (log E e^(theta Y) + log beta)/theta
    (+inf) is minimized at the root of its stationarity, in floats for a
    start, then in ``Decimal``.  t_star (the tilt at +inf) is also ``atom`` -
    ``offset`` (p > 1) or esssup + ``offset`` (p < 0), which holds gaps far
    below 1e-600.  With the density g^(p-1) / E g^(p-1) (the tilt at +inf)
    come its conjugate-order entropy, the primal-dual gap value - E[YZ] and
    the count of 60-digit evaluations of h.
    """
    if not (math.isinf(p) or abs(p) <= 1e15):
        raise ValueError("60 digits hold the finite orders up to |p| = 1e15")
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = PREC, MAX_EMAX, MIN_EMIN
        v, P = ([Decimal(x) for x in a.tolist()] for a in (d.values, d.probs))
        n, top, finite = len(v), v[-1], not math.isinf(p)
        log_beta = -(1 - Decimal(alpha)).ln()
        if P[-1] >= 1 - Decimal(alpha):
            return DecimalRisk(top, top if finite else None, n - 1 if finite else None,
                               0 * top if finite else None, [0 * top] * (n - 1) + [1 / P[-1]],
                               -P[-1].ln(), 0 * top, 0)
        spread = top - v[0]
        y = [(x - top) / spread for x in v]
        try:
            start = _solve([float(x) for x in y], d.probs.tolist(), float(log_beta),
                           float(p) if finite else None, math.exp, math.log, None, 1e-14, 0.0)[:2]
        except (ArithmeticError, ValueError):
            start = None
        pd = Decimal(p) if finite else None
        k, sigma, (idx, a, m, e, s1, s2), count = _solve(
            y, P, log_beta, pd, Decimal.exp, Decimal.ln, start, Decimal("1e-58"),
            log_beta * Decimal("1e-50"))
        if finite:
            t = y[k] - sigma.exp() if p > 0 else sigma.exp()
            value = t + (1 if p > 0 else -1) * ((log_beta + m + s2.ln()) / pd).exp()
            t_star, offset, order = top + spread * t, spread * sigma.exp(), pd / (pd - 1)
        else:
            value = (m + s1.ln() + log_beta) / sigma.exp()
            t_star, k, offset, order = sigma.exp() / spread, None, None, Decimal(1)
        z = [0 * top] * n
        for i, w in zip(idx, e):
            z[i] = w / (P[i] * s1)
        pair = sum(w * y[i] for i, w in zip(idx, e)) / s1
        entropy = _entropy([P[i] for i in idx], [z[i] for i in idx],
                           [x - m - s1.ln() for x in a], order)
        return DecimalRisk(top + spread * value, t_star, k, offset, z, entropy,
                           spread * (value - pair), count)


def objective_high(d: DiscreteDistribution, alpha: float, p: float, t: float) -> float:
    """t + (1/(1-alpha))^(1/p) * (E (Y-t)_+^p)^(1/p), direct powers and a
    compensated sum."""
    moment = math.fsum((d.probs * np.maximum(d.values - t, 0.0) ** p).tolist())
    return t + (1.0 / (1.0 - alpha)) ** (1.0 / p) * moment ** (1.0 / p)


def objective_neg(d: DiscreteDistribution, alpha: float, p: float, t: float) -> float:
    """t - (1/(1-alpha))^(1/p) * (E (t-Y)^p)^(1/p) for t above every atom,
    direct powers and a compensated sum."""
    moment = math.fsum((d.probs * (t - d.values) ** p).tolist())
    return t - (1.0 / (1.0 - alpha)) ** (1.0 / p) * moment ** (1.0 / p)


def grid_min(f, lo: float, hi: float, num: int = 200001) -> float:
    ts = np.linspace(lo, hi, num)
    return min(f(float(t)) for t in ts)


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
    """Reference for ``solver.find_root``: bracket growth that moves the
    wrong-signed end away from the other, the same stop rule, then plain
    bisection.  Reads only the value of g's ``(value, slope)`` pair.
    Returns ``(root, evaluations)``."""
    evaluations = [0]

    def value(t):
        evaluations[0] += 1
        return g(t)[0]

    while value(lo) >= 0.0:
        lo = hi - 2.0 * (hi - lo)
    while value(hi) < 0.0:
        hi = lo + 2.0 * (hi - lo)
    while (hi - lo) > tol * (1.0 + abs(lo) + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        lo, hi = (mid, hi) if value(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi), evaluations[0]


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
        if p.min() < 1e-3 or (max_top is not None and p[-1] >= max_top):
            continue
        return from_samples(v, p)
    raise RuntimeError("could not draw a distribution with the requested shape")


def evar_theta_alloc(d: DiscreteDistribution, alpha: float, p: float, tol: float):
    """``evar._evar_power``'s solve in s = log theta on freshly allocated
    arrays, term for term, for every order (finite p > 1, p < 0, +inf):
    ``(value, t_star, iterations, density weights)`` for an interior solve,
    or None when the top-atom pre-test takes the boundary branch."""
    log_beta, _ = RiskSpec(alpha, p).budget()
    top, logp = _top_atom_test(d, log_beta)
    if top >= 0.0:
        return None
    m, spread, y = _unit_space(d)
    finite = not math.isinf(p)
    s_max = 700.0 + min(0.0, math.log(abs(p)))
    # every term is at most log P: shifted by the top atom's, floored at -700
    shift = max(float(logp[-1]), -700.0)
    logp = logp - shift
    # the last evaluation's point in s, L and log E_w[1/u] (-E_w[theta y]
    # at +inf)
    last, L, g = math.nan, 0.0, 0.0

    def scaled(theta: float):
        # theta y / p on the atoms with u = 1 + theta y / p > 0; theta y at +inf
        x = (theta / p if finite else theta) * y
        i = int(np.searchsorted(x, -1.0, side="right")) if finite and p > 0.0 else 0
        return i, x[i:]

    def moments(theta: float):
        # (L, log E_w[1/u], the slope of -h in s), or (L, -E_w[theta y],
        # Var_w(theta y)) at +inf
        i, x = scaled(theta)
        e = np.exp(logp[i:] + (p * np.log1p(x) if finite else x))
        total = float(e.sum())
        L = shift + math.log(total)
        if not finite:
            mean = float(np.dot(e, x)) / total
            return L, -mean, float(np.dot(e * x, x)) / total - mean * mean
        r = x / (x + 1.0)
        mean = float(np.dot(e, r)) / total
        if mean < 0.5:
            inv, g = 1.0 - mean, math.log1p(-mean)
        else:
            r = 1.0 / (x + 1.0)
            mean = inv = float(np.dot(e, r)) / total
            g = math.log(inv)
        var = float(np.dot(e * r, r)) / total - mean * mean
        return L, g, (p - 1.0) * (p * var) / inv

    def neg_h(s: float):
        nonlocal last, L, g
        last = min(s, s_max)
        L, g, slope = moments(math.exp(last))
        pg = p * g if finite else g
        value = log_beta + L + pg
        if s > s_max:
            return (0.0 if value > 0.0 else -value), 0.0
        if value != top and abs(value) <= 4.0 * math.ulp(log_beta + abs(L) + abs(pg)):
            return 0.0, slope
        return -value, slope

    s, iterations = find_root(neg_h, 1.0, 3.0, tol)
    s = min(s, s_max)
    if s != last:
        neg_h(s)
        iterations += 1
    theta = math.exp(s)
    c = log_beta + L
    r = c / p
    value = min(0.0, c / theta * (math.expm1(r) / r if r != 0.0 else 1.0))
    i, x = scaled(theta)
    e = (p - 1.0) * np.log1p(x) - (L + g) if finite else x - L
    t_star = m - spread * (p / theta) if finite else theta / spread
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


def lattice_rows(parts: int, total: int, cap: int):
    """Integer vectors of length ``parts`` with entries in [0, cap] summing to
    ``total``, as tuples in lexicographic order: a plain Python recursion."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for x in range(max(0, total - cap * (parts - 1)), min(cap, total) + 1):
        for rest in lattice_rows(parts - 1, total - x, cap):
            yield (x, *rest)


def is_sorted_lattice(grid: np.ndarray, total: int) -> bool:
    """Whether ``grid`` holds every vector of its width with entries in
    [0, total] summing to ``total``, each once, in lexicographic order.

    No enumeration: the rows number C(total + parts - 1, parts - 1), each
    lies in the set, and each is lexicographically above the one before, so
    they are distinct, all of the set, and sorted.  Checked in blocks of
    2^20 rows, with differences in int16 (entries up to 16383).
    """
    n, parts = grid.shape
    if n != math.comb(total + parts - 1, parts - 1) or total >= 1 << 14:
        return False
    for start in range(0, n, 1 << 20):
        rows = grid[start : start + (1 << 20) + 1].astype(np.int16)  # one row of overlap
        if rows.min() < 0 or rows.max() > total:
            return False
        if not (rows.sum(axis=1, dtype=np.int64) == total).all():
            return False
        step = np.diff(rows, axis=0)
        lead = step[np.arange(step.shape[0]), (step != 0).argmax(axis=1)]
        if not (lead > 0).all():  # the first nonzero step is up; none is all zero
            return False
    return True


@functools.lru_cache(maxsize=2)
def lattice_reference(parts: int, total: int, cap: int) -> np.ndarray:
    """``lattice_rows`` as a read-only int64 array, cached for the oracle
    reference's repeated grids."""
    flat = itertools.chain.from_iterable(lattice_rows(parts, total, cap))
    grid = np.fromiter(flat, dtype=np.int64).reshape(-1, parts)
    grid.setflags(write=False)
    return grid


def refine_offsets_reference(n: int) -> np.ndarray:
    """The refinement's integer steps for n atoms, built by an int64 meshgrid."""
    reach = {2: 20, 3: 20, 4: 20, 5: 12, 6: 7}[n]
    axes = [np.arange(-reach, reach + 1, dtype=np.int64)] * (n - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    offs = np.column_stack([m.ravel() for m in mesh])
    last = -offs.sum(axis=1)
    return np.column_stack([offs, last])[np.abs(last) <= reach]


def budget_mask_reference(Q: np.ndarray, d: DiscreteDistribution, pprime: float,
                          log_beta: float) -> np.ndarray:
    """Rows q (q_i = p_i Z_i) whose density Z = q / p is inside the entropy
    budget: E Z log Z <= log beta at p' = 1, else E Z^p' <= beta^(p' - 1)
    for p' > 1 and >= for p' < 1, tested as E (Z/beta)^p' against 1/beta,
    each row's moment a sum over its atoms."""
    p = d.probs
    if pprime == 1.0:
        safe = np.where(Q > 0.0, Q, 1.0)
        return (np.where(Q > 0.0, Q * np.log(safe / p), 0.0)).sum(axis=1) <= log_beta
    inv_beta = math.exp(-log_beta)
    with np.errstate(over="ignore"):
        moment = (p * (Q * (inv_beta / p)) ** pprime).sum(axis=1)
    return moment <= inv_beta if pprime > 1.0 else moment >= inv_beta


def refine_reference(d: DiscreteDistribution, q0: np.ndarray, val0: float, pprime: float,
                     log_beta: float, resolution: int):
    """The oracle's local refinement in one pass: the budget tested on every
    nonnegative row, then one argmax."""
    if d.n_atoms == 1:
        return val0, q0
    offs = refine_offsets_reference(d.n_atoms)
    Q = q0[None, :] + offs.astype(np.float64) / (20.0 * resolution)
    Q = Q[np.all(Q >= 0.0, axis=1)]
    Q = Q[budget_mask_reference(Q, d, pprime, log_beta)]
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
    log_beta, pprime = spec.budget()
    grid = lattice_reference(d.n_atoms, resolution, resolution)
    Q = grid.astype(np.float64) / resolution
    Q = Q[budget_mask_reference(Q, d, pprime, log_beta)]
    best_val, best_q = expectation(d), d.probs.copy()
    obj = Q @ d.values
    k = int(np.argmax(obj))
    if obj[k] > best_val:
        best_val, best_q = float(obj[k]), Q[k]
    return refine_reference(d, best_q, best_val, pprime, log_beta, resolution)
