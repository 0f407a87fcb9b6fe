"""The entropic value-at-risk family, computed through scalar dual problems.

Each order regime of the family admits an equivalent one-dimensional convex
minimization whose optimizer also produces the density attaining the defining
supremum.  ``evar`` dispatches on (confidence level, order); the regime
solvers are exposed for direct use and for cross-checking against the
brute-force supremum oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distribution import (
    DiscreteDistribution,
    _exp_shifted,
    essinf,
    esssup,
    expectation,
)
from .entropy import Density
from .solver import find_root

DEFAULT_TOL = 1e-14

#: Dispatch route tags carried by RiskResult.branch.
BRANCHES = (
    "avar",
    "higher_order",
    "shannon",
    "esssup_collapse",
    "negative_order",
    "degenerate_negative_order",
    "expectation",
    "esssup_level1",
)


def conjugate(p: float) -> float:
    """Holder-conjugate exponent p/(p-1), with 1 and +inf swapped.

    Involutive on its domain; defined for every nonzero real and +inf.
    """
    if p == 0.0:
        raise ValueError("order 0 has no conjugate exponent")
    if math.isnan(p) or (math.isinf(p) and p < 0):
        raise ValueError(f"invalid order {p!r}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class RiskSpec:
    """Confidence level and order selecting one member of the family."""

    alpha: float
    order: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        o = float(self.order)
        if math.isnan(a) or not 0.0 <= a <= 1.0:
            raise ValueError("alpha must lie in [0,1]")
        if o == 0.0 or math.isnan(o) or (math.isinf(o) and o < 0):
            raise ValueError("order must be a nonzero real or +inf")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "order", o)


@dataclass(frozen=True)
class RiskResult:
    """Risk value plus optimizer, attaining density and solver diagnostics.

    ``branch`` is one of ``BRANCHES`` and identifies the dispatch route.
    ``t_star`` is the scalar optimizer of the regime's dual problem; for the
    "shannon" branch it holds the exponential tilt parameter instead.  It is
    None where no finite value exists, which includes finite orders of
    magnitude near the float range (the optimizer moves out like -p/theta).
    ``residual`` is |h| at the solution, the distance of the attaining
    density's conjugate-order entropy from the budget log(1/(1-alpha)) (zero
    for closed forms), ``iterations`` the number of evaluations of the scalar
    solve's monotone function after bracketing, on every branch (zero for
    closed forms and pre-test exits).
    """

    value: float
    t_star: Optional[float]
    density: Optional[Density]
    branch: str
    iterations: int
    residual: float


def _log_beta(alpha: float) -> float:
    # log(1/(1-alpha)), the entropy budget
    return -math.log1p(-alpha)


def _ones_density(d: DiscreteDistribution) -> Density:
    return Density(d, np.ones(d.n_atoms))


def _argmax_density(d: DiscreteDistribution) -> Density:
    w = np.zeros(d.n_atoms)
    w[-1] = 1.0 / float(d.probs[-1])
    return Density(d, w)


def _top_atom_test(d: DiscreteDistribution, alpha: float) -> Tuple[float, float, np.ndarray]:
    """The one top-atom pre-test: ``(top, log_beta, log probs)``.

    top = log(beta P(Y = esssup)) with beta = 1/(1 - alpha).  At top >= 0
    every entropy-budget regime takes its boundary branch: the supremum is
    esssup, attained by the normalized indicator of the top atom.  ``top``
    is read off the log-probabilities the solvers use, so no order, and no
    witness, decides a tie differently.
    """
    log_beta = _log_beta(alpha)
    logp = np.log(d.probs)
    return log_beta + float(logp[-1]), log_beta, logp


def _unit_space(d: DiscreteDistribution) -> Tuple[float, float, np.ndarray]:
    """Standardize once: ``(m, s, (Y - m)/s)`` with m = esssup, s = spread.

    The family is translation-equivariant and positively homogeneous, so the
    iterative solvers work on the standardized atoms, which lie in [-1, 0]
    whatever the magnitude or offset of the data, and map back with
    value = m + s value' and t* = m + s t'.  Needs at least two atoms.
    """
    m = esssup(d)
    s = m - essinf(d)
    return m, s, (d.values - m) / s


def avar(d: DiscreteDistribution, alpha: float) -> RiskResult:
    """Average value-at-risk: the mean of the worst (1 - alpha) tail.

    Closed form from the sorted tail.  The reported optimizer is the
    left-continuous lower quantile, and the attaining density splits mass at
    the quantile atom so that exactly the tail probability is reweighted.
    """
    if math.isnan(alpha) or not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0,1)")
    beta = 1.0 / (1.0 - alpha)
    v, p = d.values, d.probs
    cdf = np.cumsum(p)
    idx = min(int(np.searchsorted(cdf, alpha, side="left")), d.n_atoms - 1)
    t = float(v[idx])  # left-continuous lower quantile, same rule as var_level
    # the split takes the tail mass above the quantile atom as an exact sum,
    # not from the rounded cdf, so the reweighted mass is 1 - alpha by construction
    upper = math.fsum(p[idx + 1 :].tolist())
    frac = min(max(((1.0 - alpha) - upper) / float(p[idx]), 0.0), 1.0)
    w = np.zeros(d.n_atoms)
    w[idx + 1 :] = beta
    w[idx] = beta * frac
    # E[YZ] written as t + beta E(Y - t)_+ over the atoms above the quantile
    # atom: the excess terms are nonnegative and vanish when that atom is the
    # top one, so the value cannot round above esssup
    value = t + beta * math.fsum((p[idx + 1 :] * (v[idx + 1 :] - t)).tolist())
    return RiskResult(value, t, Density(d, w), "avar", 0, 0.0)


def evar_power(
    d: DiscreteDistribution, alpha: float, p: float, tol: float = DEFAULT_TOL
) -> RiskResult:
    """Every entropy-budget order: finite p > 1, p < 0, and p = +inf (Shannon).

    The finite orders minimize t + beta^(1/p) ||(Y - t)_+||_p (p > 1) or
    t - beta^(1/p) ||t - Y||_p over t > esssup Y (p < 0).  The shared top-atom
    pre-test, beta P(Y = esssup) >= 1, selects the boundary branch exactly:
    value esssup, attained by the normalized indicator of the top atom, with
    no solve ("degenerate_negative_order" for p < 0).

    Otherwise one solve serves every order.  On the standardized atoms y
    (esssup 0, spread 1) write t' = -p/theta with theta > 0 and
    u = 1 + theta y / p, so that the gap |y - t'| is |t'| u; the factor |t'|
    cancels from the stationarity and from the density.  With
    phi(z) = p log1p(z/p), the log of u^p at z = theta y, let
    L = log E e^phi(theta y) and w the weights P e^phi / E e^phi.  Then

        h = log beta + L + phi(-E_w[theta y / u])

    is p times the stationarity, and log beta - h is the conjugate-order
    entropy of the density u^(p-1) / E u^(p-1).  h falls from log beta at
    theta = 0 to ``top`` < 0 as theta grows, so ``find_root`` finds its
    root in s = log theta, which keeps relative resolution in theta at both
    ends.  It starts from [1, 3], where the root lies for most samples at
    levels 0.5 to 0.99.  The value is (c/theta) expm1(c/p) / (c/p) with
    c = log beta + L, the scalar objective at t'.  Order +inf is the
    same code with phi(z) = z (the limit as |p| grows): u = 1, the density
    is the exponential tilt e^(theta y - L) and the value (log beta + L)/theta.

    ``t_star`` is the optimizer m - spread p/theta for finite p, or None
    where that overflows (|p| near the float range); at p = +inf it is the
    tilt parameter theta/spread, and None on the boundary branch.
    ``residual`` is |h| at the returned theta, the density's distance from
    the entropy budget.
    """
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if not (p > 1.0 or p < 0.0) or p == -math.inf:
        raise ValueError("order must be a real above 1 or below 0, or +inf")
    finite = not math.isinf(p)
    branch = "higher_order" if p > 1.0 else "negative_order"
    branch = branch if finite else "shannon"
    top, log_beta, logp = _top_atom_test(d, alpha)
    if top >= 0.0:
        M = esssup(d)
        branch = "degenerate_negative_order" if p < 0.0 else branch
        return RiskResult(M, M if finite else None, _argmax_density(d), branch, 0, 0.0)

    m, spread, y = _unit_space(d)
    # theta and theta/|p| stay below e^700, so every term below is finite;
    # past that h is taken at its limit, top
    s_max = 700.0 + min(0.0, math.log(abs(p)))
    # one scratch block for every evaluation: theta y / p (theta y at +inf),
    # then the terms log P + phi, then theta y / (p u)
    scratch = np.empty((3, d.n_atoms))

    def moments(theta: float) -> Tuple[int, float, float]:
        # (first atom with u > 0, L, E_w[theta y / (p u)]), or E_w[theta y] at +inf
        x = np.multiply(theta / p if finite else theta, y, out=scratch[0])
        i = int(np.searchsorted(x, -1.0, side="right")) if finite and p > 0.0 else 0
        x, a = x[i:], scratch[1, i:]
        phi = np.multiply(p, np.log1p(x, out=a), out=a) if finite else x
        top_a, e = _exp_shifted(np.add(logp[i:], phi, out=a))
        total = float(e.sum())
        q = np.divide(x, np.add(x, 1.0, out=scratch[2, i:]), out=scratch[2, i:]) if finite else x
        return i, top_a + math.log(total), float(np.dot(e, q)) / total

    def h_at(L: float, mean: float) -> float:
        return log_beta + L + (p * math.log1p(-mean) if finite else -mean)

    def h(s: float) -> float:
        return top if s > s_max else h_at(*moments(math.exp(s))[1:])

    s, iterations = find_root(lambda s: -h(s), 1.0, 3.0, tol)
    theta = math.exp(min(s, s_max))
    i, L, mean = moments(theta)
    c = log_beta + L
    r = c / p
    value = min(0.0, c / theta * (math.expm1(r) / r if r != 0.0 else 1.0))
    # the density u^(p-1) / E u^(p-1), with log E u^(p-1) = L + log1p(-mean)
    x = scratch[0, i:]
    if finite:
        e = np.multiply(p - 1.0, np.log1p(x, out=x), out=x)
        np.subtract(e, L + math.log1p(-mean), out=e)
        t_star = m - spread * (p / theta)
    else:
        e = np.subtract(x, L, out=x)
        t_star = theta / spread
    w = np.zeros(d.n_atoms)
    w[i:] = np.exp(e, out=e)
    return RiskResult(
        m + spread * value, t_star if math.isfinite(t_star) else None, Density(d, w), branch,
        iterations, abs(h_at(L, mean)),
    )


def evar(d: DiscreteDistribution, spec: RiskSpec, tol: Optional[float] = None) -> RiskResult:
    """Entropic value-at-risk of the requested level and order.

    Dispatch: alpha = 1 gives the essential supremum; orders in (0, 1)
    collapse to the essential supremum at every level (including alpha = 0);
    alpha = 0 otherwise gives the expectation; order 1 is the average
    value-at-risk; every other order (above 1, below 0, or +inf) goes to
    ``evar_power``.  The attaining density is returned whenever one exists
    in closed form.  ``t_star`` is the scalar optimizer, except on the
    "shannon" branch, where it is the tilt parameter, and it is None where
    no finite one exists: on the "esssup_level1" and "expectation" branches,
    at p = +inf on the boundary branch, and at finite |p| so large that
    m - spread p/theta overflows.
    """
    a, p = spec.alpha, spec.order
    if a == 1.0:
        return RiskResult(esssup(d), None, None, "esssup_level1", 0, 0.0)
    if 0.0 < p < 1.0:
        M = esssup(d)
        return RiskResult(M, M, None, "esssup_collapse", 0, 0.0)
    if a == 0.0:
        return RiskResult(expectation(d), None, _ones_density(d), "expectation", 0, 0.0)
    if p == 1.0:
        return avar(d, a)
    return evar_power(d, a, p, tol=DEFAULT_TOL if tol is None else tol)


def norm_equivalence_bounds(alpha: float, p: float) -> Tuple[float, float]:
    """Sharp constants (lower, upper) comparing the risk norm with a power norm.

    For p > 1: lower * ||Y||_p <= risk(|Y|) <= upper * ||Y||_p with
    upper = (1/(1-alpha))^(1/p).  For p < 0 the comparison norm is the sup
    norm and the upper constant is 1.
    """
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    beta = 1.0 / (1.0 - alpha)
    if p > 1.0 and not math.isinf(p):
        lower = min(1.0, (beta ** (1.0 / (p - 1.0)) - 1.0) ** ((p - 1.0) / p))
        return lower, beta ** (1.0 / p)
    if p < 0.0 and not math.isinf(p):
        return 1.0 - (1.0 - alpha) ** (-1.0 / p), 1.0
    raise ValueError("bounds exist for finite p > 1 or p < 0 only")


def risk_level_bound(alpha: float, alpha_prime: float, p: float) -> float:
    """Multiplicative comparison across levels: risk_alpha <= bound * risk_alpha' (Y >= 0)."""
    if math.isnan(alpha) or math.isnan(alpha_prime):
        raise ValueError("levels must be real")
    if not (0.0 < alpha_prime <= alpha < 1.0):
        raise ValueError("need 0 < alpha' <= alpha < 1")
    if p > 1.0 and not math.isinf(p):
        inner = ((1.0 - alpha) / (1.0 - alpha_prime)) ** (1.0 / (p - 1.0)) - (
            1.0 / (1.0 - alpha)
        ) ** (1.0 / (1.0 - p))
        return inner ** ((1.0 - p) / p)
    if p < 0.0 and not math.isinf(p):
        return 1.0 / (1.0 - (1.0 - alpha_prime) ** (-1.0 / p))
    raise ValueError("bound exists for finite p > 1 or p < 0 only")


def evar_derivative_pprime(
    d: DiscreteDistribution, alpha: float, pprime: float, tol: float = DEFAULT_TOL
) -> float:
    """Exact conjugate-order derivative of the p > 1 risk value at its optimizer.

    Requires strictly positive, nonconstant atoms.  Always nonpositive: the
    value is nonincreasing in the conjugate order.
    """
    if math.isnan(pprime) or math.isinf(pprime) or not pprime > 1.0:
        raise ValueError("conjugate order must be a finite real above 1")
    if essinf(d) <= 0.0:
        raise ValueError("atoms must be strictly positive")
    if d.n_atoms == 1:
        raise ValueError("constant variable: the value does not depend on the order")
    p = pprime / (pprime - 1.0)
    res = evar_power(d, alpha, p, tol=tol)
    w = res.density.weights
    log_beta = _log_beta(alpha)
    # value - t* is beta^(1/p) ||(Y - t*)_+||_p, and 0 on the boundary branch
    scale = res.value - res.t_star
    if scale == 0.0:
        return 0.0
    pos = w > 0.0
    logw = np.log(w[pos])
    ez_log = float(np.sum(np.exp(np.log(d.probs[pos]) + pprime * logw) * logw))
    bracket = log_beta / pprime - ez_log / (pprime * math.exp((pprime - 1.0) * log_beta))
    return scale * bracket
