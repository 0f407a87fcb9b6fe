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
    _log_gaps,
    _log_moments,
    essinf,
    esssup,
    expectation,
)
from .entropy import Density
from .solver import find_root

DEFAULT_TOL = 1e-11

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
    "shannon" branch it holds the exponential tilt parameter instead.
    ``residual`` is the stationarity defect of the scalar solve (zero for
    closed forms), ``iterations`` the number of evaluations of the scalar
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


def _stationarity(lk: float, lk1: float, p: float, log_beta: float) -> float:
    """d/dt of the scalar dual from the log-moments of orders p and p - 1.

    For p > 1 the dual is t + beta^(1/p) ||(Y - t)_+||_p (one-sided at atom
    kinks, 1 once no atom is above t); for p < 0 it is
    t - beta^(1/p) ||t - Y||_p on (esssup, inf).  Both derivatives read
    1 - beta^(1/p) E[X^p]^(1/p - 1) E[X^(p-1)] with X the positive gap.
    """
    if lk == -math.inf:
        return 1.0
    return 1.0 - math.exp(log_beta / p + (1.0 / p - 1.0) * lk + lk1)


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
    """Finite orders p > 1 and p < 0: minimize t + beta^(1/p) ||(Y - t)_+||_p
    for p > 1, and t - beta^(1/p) ||t - Y||_p over t > esssup Y for p < 0.

    Both derivatives tend to 1 - (beta P(Y = esssup))^(1/p) at esssup, so the
    shared top-atom pre-test, beta P(Y = esssup) >= 1, selects the boundary
    branch exactly: value esssup, attained by the normalized indicator of the
    top atom, with no solve ("degenerate_negative_order" for p < 0).
    Otherwise the stationary point is interior.  On the standardized atoms
    (esssup 0, spread 1) ``find_root`` brackets it on [-2, 0] for p > 1 and
    on [0, 1] for p < 0 and narrows the bracket by safeguarded interpolation.
    It is handed -log(1 - derivative), which has the derivative's sign and
    does not saturate near 1: +inf where no atom lies above t, and the
    closed-form limit -top/p at the p < 0 end esssup.  The attaining density
    is the normalized gap power, (Y - t*)_+^(p-1) or (t* - Y)^(p-1).
    """
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if math.isinf(p) or not (p > 1.0 or p < 0.0):
        raise ValueError("order must be a finite real above 1 or below 0")
    gap = p < 0.0
    top, log_beta, logp = _top_atom_test(d, alpha)
    if top >= 0.0:
        M = esssup(d)
        branch = "degenerate_negative_order" if gap else "higher_order"
        return RiskResult(M, M, _argmax_density(d), branch, 0, 0.0)

    m, s, y = _unit_space(d)
    # one scratch block for every evaluation: the gap logs, then the two
    # rows of kernel terms
    scratch = np.empty((3, d.n_atoms))
    logx_out, terms_out = scratch[0], scratch[1:]

    def fprime(t: float) -> float:
        # -log(1 - stationarity): the same sign, but no saturation near 1
        if gap and t <= 0.0:
            return -top / p  # the limit at esssup, strictly negative here
        lk, lk1 = _log_moments(*_log_gaps(y, logp, t, gap, logx_out), p, terms_out)
        if lk == -math.inf:
            return math.inf  # no atom above t
        return -(log_beta / p + (1.0 / p - 1.0) * lk + lk1)

    lo, hi = (0.0, 1.0) if gap else (-2.0, 0.0)
    t, iterations = find_root(fprime, lo, hi, tol)
    logp_t, logx = _log_gaps(y, logp, t, gap, logx_out)
    lk, lk1 = _log_moments(logp_t, logx, p, terms_out)
    norm = math.exp(log_beta / p + lk / p)
    value = min(0.0, t - norm if gap else t + norm)
    # the gap power (p - 1) logx - lk1, exponentiated in the scratch too
    e = np.multiply(p - 1.0, logx, out=terms_out[0, : logx.size])
    w = np.zeros(d.n_atoms)
    w[d.n_atoms - logx.size :] = np.exp(np.subtract(e, lk1, out=e), out=e)
    return RiskResult(
        m + s * value, m + s * t, Density(d, w), "negative_order" if gap else "higher_order",
        iterations, abs(_stationarity(lk, lk1, p, log_beta)),
    )


def evar_shannon(d: DiscreteDistribution, alpha: float, theta_tol: float = 1e-12) -> RiskResult:
    """Shannon member (order +inf) by exponential tilting.

    The tilted density proportional to e^(theta Y) has relative entropy
    nondecreasing in theta >= 0, so the entropy budget log(1/(1-alpha)) is
    met by ``find_root`` on theta, with one exp pass over the atoms per
    evaluation.  If even the largest reachable entropy
    log(1/P(Y = esssup)) fits the budget, the value is the essential
    supremum with the uniform density on the top atom.  The tilt is found on
    the standardized atoms (esssup 0, spread 1) and rescaled.  ``t_star``
    holds the tilt parameter; it is 0 at alpha = 0 and None on the esssup
    branch.
    """
    if math.isnan(alpha) or not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0,1)")
    if alpha == 0.0:
        return RiskResult(expectation(d), 0.0, _ones_density(d), "shannon", 0, 0.0)
    top, log_beta, logp = _top_atom_test(d, alpha)
    if top >= 0.0:
        return RiskResult(esssup(d), None, _argmax_density(d), "shannon", 0, 0.0)

    m, s, y = _unit_space(d)
    terms = np.empty(d.n_atoms)  # scratch for every evaluation

    def tilt(theta: float) -> Tuple[float, float]:
        # the log-normalizer lambda = log E e^(theta y) and the tilted mean,
        # both from the one exp pass over a = log p + theta y
        np.multiply(theta, y, out=terms)
        top_a, e = _exp_shifted(np.add(logp, terms, out=terms))
        total = float(e.sum())
        return top_a + math.log(total), float(np.dot(e, y)) / total

    def budget_gap(theta: float) -> float:
        # relative entropy of the tilt, theta E_tilt[y] - lambda, minus the budget
        lam, mean = tilt(theta)
        return theta * mean - lam - log_beta

    theta, iterations = find_root(budget_gap, 0.0, 1.0, theta_tol)
    lam, value = tilt(theta)
    np.multiply(theta, y, out=terms)
    w = np.exp(np.subtract(terms, lam, out=terms), out=terms)
    return RiskResult(m + s * value, theta / s, Density(d, w), "shannon", iterations,
                      abs(theta * value - lam - log_beta))


def evar(d: DiscreteDistribution, spec: RiskSpec, tol: Optional[float] = None) -> RiskResult:
    """Entropic value-at-risk of the requested level and order.

    Dispatch: alpha = 1 gives the essential supremum; orders in (0, 1)
    collapse to the essential supremum at every level (including alpha = 0);
    alpha = 0 otherwise gives the expectation; order 1 is the average
    value-at-risk; +inf goes to ``evar_shannon`` and every finite order above
    1 or below 0 to ``evar_power``.  The attaining density is returned
    whenever one exists in closed form.
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
    if math.isinf(p):
        return evar_shannon(d, a, theta_tol=(1e-12 if tol is None else tol))
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
