"""The entropic value-at-risk family, computed through scalar dual problems.

Each order regime of the family admits an equivalent one-dimensional convex
minimization whose optimizer also produces the density attaining the defining
supremum.  ``evar`` dispatches on (confidence level, order) and is the one
entry to the regime solvers; ``RiskSpec.budget`` decides which requests
have an entropy budget, for the solve and for every supremum-side check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distribution import (
    DiscreteDistribution,
    _exp_shifted,
    _quantile_split,
    essinf,
    esssup,
    expectation,
)
from .entropy import Density
from .solver import find_root

#: The risk solve's stopping width in s = log theta.
DEFAULT_TOL = 1e-14


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

    def budget(self) -> Tuple[float, float]:
        """The entropy budget ``(log beta, p')``: log(1/(1 - alpha)) and the conjugate order.

        The one place that decides which requests have one: 0 < alpha < 1 and
        an order above 1, below 0 or +inf (p' = 1, Shannon); ``evar`` answers
        every other request in closed form.
        """
        a, p = self.alpha, self.order
        if not (0.0 < a < 1.0 and (p > 1.0 or p < 0.0)):
            raise ValueError("no entropy budget: needs 0 < alpha < 1 and order > 1, < 0 or inf")
        return -math.log1p(-a), conjugate(p)


@dataclass(frozen=True)
class RiskResult:
    """Risk value plus optimizer, attaining density and solver diagnostics.

    ``branch`` names the dispatch route: "avar", "higher_order", "shannon",
    "esssup_collapse", "negative_order", "degenerate_negative_order",
    "expectation" or "esssup_level1".
    ``t_star`` is the scalar optimizer of the regime's dual problem; for the
    "shannon" branch it holds the exponential tilt parameter instead.  It is
    None where no finite value exists, which includes finite orders of
    magnitude near the float range (the optimizer moves out like -p/theta).
    ``residual`` is |h| at the solution, the distance of the attaining
    density's conjugate-order entropy from the budget log(1/(1-alpha)) (zero
    for closed forms), ``iterations`` the number of kernel passes of the
    scalar solve: bracket growth, steps, and the final pass where one runs
    (zero for closed forms and pre-test exits).
    """

    value: float
    t_star: Optional[float]
    density: Optional[Density]
    branch: str
    iterations: int
    residual: float


def _argmax_density(d: DiscreteDistribution) -> Density:
    w = np.zeros(d.n_atoms)
    w[-1] = 1.0 / float(d.probs[-1])
    return Density(d, w)


def _top_atom_test(d: DiscreteDistribution, log_beta: float) -> Tuple[float, np.ndarray]:
    """The one top-atom pre-test: ``(top, log probs)``.

    top = log(beta P(Y = esssup)) with beta = 1/(1 - alpha).  At top >= 0
    every entropy-budget regime takes its boundary branch: the supremum is
    esssup, attained by the normalized indicator of the top atom.  ``top``
    is read off the log-probabilities the solvers use, so no order, and no
    witness, decides a tie differently.
    """
    logp = np.log(d.probs)
    return log_beta + float(logp[-1]), logp


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


def _avar(d: DiscreteDistribution, alpha: float) -> RiskResult:
    """Average value-at-risk: the mean of the worst (1 - alpha) tail.

    Closed form from the sorted tail.  The reported optimizer is the
    left-continuous lower quantile, and the attaining density splits mass at
    the quantile atom so that exactly the tail probability is reweighted.
    """
    beta = 1.0 / (1.0 - alpha)
    v, p = d.values, d.probs
    # the lower quantile and the tail above it, from one pass of tail sums
    idx, upper = _quantile_split(d, 1.0 - alpha)
    t = float(v[idx])
    # the split is nonnegative, and above 1 only by the rounding of the sums
    # (or at the bottom atom, where they can fall short of 1 - alpha)
    frac = min(((1.0 - alpha) - upper) / float(p[idx]), 1.0)
    w = np.zeros(d.n_atoms)
    w[idx + 1 :] = beta
    w[idx] = beta * frac
    # E[YZ] written as t + beta E(Y - t)_+ over the atoms above the quantile
    # atom: the excess terms are nonnegative and vanish when that atom is the
    # top one, so the value cannot round above esssup
    value = t + beta * math.fsum((p[idx + 1 :] * (v[idx + 1 :] - t)).tolist())
    return RiskResult(value, t, Density(d, w), "avar", 0, 0.0)


def _evar_power(d: DiscreteDistribution, spec: RiskSpec) -> RiskResult:
    """Every entropy-budget order: finite p > 1, p < 0, and p = +inf (Shannon).

    The finite orders minimize t + beta^(1/p) ||(Y - t)_+||_p (p > 1) or
    t - beta^(1/p) ||t - Y||_p over t > esssup Y (p < 0).  The shared top-atom
    pre-test, beta P(Y = esssup) >= 1, selects the boundary branch exactly:
    value esssup, attained by the normalized indicator of the top atom, with
    no solve ("degenerate_negative_order" for p < 0).

    Otherwise one solve serves every order.  On the standardized atoms y
    (esssup 0, spread 1) write t' = -p/theta with theta > 0 and
    u = 1 + x with x = theta y / p, so that the gap |y - t'| is |t'| u and
    |t'| cancels.  With phi(z) = p log1p(z/p), the log of u^p at z = theta y,
    let L = log E e^phi(theta y) and w the weights P e^phi / E e^phi.  Then

        h = log beta + L + phi(-E_w[theta y / u]) = log beta + L + p g,  g = log E_w[1/u],

    is p times the stationarity, and log beta - h is the conjugate-order
    entropy of the density u^(p-1) / e^(L + g).  h falls from log beta at
    theta = 0 to ``top`` < 0, and ``find_root`` roots -h in s = log theta
    from [1, 3], with the slope p (p - 1) Var_w(x/u) e^-g that the same
    pass gives (Var_w(theta y) at +inf).  -h is reported as 0 where |h| is
    within 4 ulps of log beta + |L| + |p g|, its own rounding, which ends
    the search there, except where h is exactly ``top``: past the last
    kink, or once every other atom's weight underflows, its sign is exact
    and the root lies before it.  h is evaluated at min(s, s_max), the
    clamp where theta or theta/|p| would overflow, so it is constant past
    s_max, and where it is still positive there (tiny |p|, whose root lies
    beyond e^700) the solve stops at s_max.  The density and value come from the
    last pass, which is re-run only where the root returned is not the
    last point evaluated.  The value is (c/theta) expm1(c/p) / (c/p) with
    c = log beta + L, the scalar objective at t'.  Order +inf is the same
    code with phi(z) = z (the limit as |p| grows): u = 1, the density is
    the exponential tilt e^(theta y - L) and the value (log beta + L)/theta.

    ``t_star`` is the optimizer m - spread p/theta for finite p, or None
    where that overflows (|p| near the float range); at p = +inf it is the
    tilt parameter theta/spread, and None on the boundary branch.
    ``residual`` is |h| at the returned theta, the density's distance from
    the entropy budget.
    """
    p = spec.order
    log_beta, _ = spec.budget()
    finite = not math.isinf(p)
    branch = "higher_order" if p > 1.0 else "negative_order"
    branch = branch if finite else "shannon"
    top, logp = _top_atom_test(d, log_beta)
    if top >= 0.0:
        M = esssup(d)
        branch = "degenerate_negative_order" if p < 0.0 else branch
        return RiskResult(M, M if finite else None, _argmax_density(d), branch, 0, 0.0)

    m, spread, y = _unit_space(d)
    # theta and theta/|p| stay below e^700, so every term below is finite;
    # h is evaluated at min(s, s_max), so it is constant past the clamp
    s_max = 700.0 + min(0.0, math.log(abs(p)))
    # every term log P + phi is at most log P (u^p <= 1, e^(theta y) <= 1): shift
    # once by the top atom's, whose term is then exactly 0, so L is its log P once
    # the others are cut or underflow; the floor keeps the shifted sum below e^700
    shift = max(float(logp[-1]), -700.0)
    logp -= shift
    # three scratch rows for every evaluation: theta y / p (theta y at +inf),
    # then the shifted terms and their exponentials, then theta y / (p u) or 1/u
    xs, terms, us = np.empty((3, d.n_atoms))
    cut = finite and p > 0.0  # p > 1 drops the atoms with u <= 0
    multiply, add, divide, log1p, add_up = np.multiply, np.add, np.divide, np.log1p, np.add.reduce
    # the last evaluation's point in s, its first atom with u > 0, L,
    # log E_w[1/u] (-E_w[theta y] at +inf) and h, which the density reads
    last, i, L, g, h = math.nan, 0, 0.0, 0.0, 0.0

    def neg_h(s: float) -> Tuple[float, float]:
        nonlocal last, i, L, g, h
        last = min(s, s_max)
        theta = math.exp(last)
        x, a, u, lp = multiply(theta / p if finite else theta, y, out=xs), terms, us, logp
        if cut:
            i = int(x.searchsorted(-1.0, side="right"))
            x, a, u, lp = x[i:], a[i:], u[i:], lp[i:]
        phi = multiply(p, log1p(x, out=a), out=a) if finite else x
        e = np.exp(add(lp, phi, out=a), out=a)
        total = float(add_up(e))
        L = shift + math.log(total)
        if not finite:
            mean = float(e.dot(x)) / total
            g, pg, r = -mean, -mean, x
        else:
            # E_w[x/u] + E_w[1/u] = 1: sum whichever is below 1/2, so neither cancels
            r = divide(x, add(x, 1.0, out=u), out=u)
            mean = float(e.dot(r)) / total
            if mean < 0.5:
                inv, g = 1.0 - mean, math.log1p(-mean)
            else:
                r = divide(1.0, add(x, 1.0, out=u), out=u)
                mean = inv = float(e.dot(r)) / total
                g = math.log(inv)
            pg = p * g
        h = log_beta + L + pg
        # the slope of -h, p (p - 1) Var_w(x/u) e^-g (Var_w(1/u) is the same),
        # or Var_w(theta y) at +inf; the product overwrites the exponentials
        var = float(multiply(e, r, out=e).dot(r)) / total - mean * mean
        slope = (p - 1.0) * (p * var) / inv if finite else var
        if s > s_max:  # h is constant there; still positive, the root lies past it
            return (0.0 if h > 0.0 else -h), 0.0
        # h is zero within its own rounding, unless it has reached its limit
        # top, past the last kink, where its sign is exact
        zero = h != top and abs(h) <= 4.0 * math.ulp(log_beta + abs(L) + abs(pg))
        return (0.0 if zero else -h), slope

    s, evaluations = find_root(neg_h, 1.0, 3.0, DEFAULT_TOL)
    s = min(s, s_max)
    if s != last:  # the root is not the last point evaluated
        neg_h(s)
        evaluations += 1
    theta = math.exp(s)
    c = log_beta + L
    r = c / p
    value = min(0.0, c / theta * (math.expm1(r) / r if r != 0.0 else 1.0))
    # the density u^(p-1) / E u^(p-1), with log E u^(p-1) = L + log E_w[1/u]
    x = xs[i:]
    if finite:
        e = np.multiply(p - 1.0, np.log1p(x, out=x), out=x)
        np.subtract(e, L + g, out=e)
        t_star = m - spread * (p / theta)
    else:
        e = np.subtract(x, L, out=x)
        t_star = theta / spread
    w = np.zeros(d.n_atoms)
    np.exp(e, out=w[i:])
    return RiskResult(
        m + spread * value, t_star if math.isfinite(t_star) else None, Density(d, w), branch,
        evaluations, abs(h),
    )


def evar(d: DiscreteDistribution, spec: RiskSpec) -> RiskResult:
    """Entropic value-at-risk of the requested level and order.

    Dispatch: alpha = 1 gives the essential supremum; orders in (0, 1)
    collapse to the essential supremum at every level (including alpha = 0);
    alpha = 0 otherwise gives the expectation; order 1 is the average
    value-at-risk; every other order (above 1, below 0, or +inf) has an
    entropy budget (``RiskSpec.budget``) and one solve.  The attaining
    density is returned whenever one exists in closed form.  ``t_star`` is
    the scalar optimizer, except on the "shannon" branch, where it is the
    tilt parameter, and it is None where no finite one exists: on the
    "esssup_level1" and "expectation" branches, at p = +inf on the boundary
    branch, and at finite |p| so large that m - spread p/theta overflows.
    """
    a, p = spec.alpha, spec.order
    if a == 1.0:
        return RiskResult(esssup(d), None, None, "esssup_level1", 0, 0.0)
    if 0.0 < p < 1.0:
        M = esssup(d)
        return RiskResult(M, M, None, "esssup_collapse", 0, 0.0)
    if a == 0.0:
        return RiskResult(expectation(d), None, Density(d, np.ones(d.n_atoms)), "expectation",
                          0, 0.0)
    if p == 1.0:
        return _avar(d, a)
    return _evar_power(d, spec)


def _log_norm_constants(alpha: float, p: float) -> Tuple[float, float]:
    """(log lower, log upper) of ``norm_equivalence_bounds``, lower before its cap at 1."""
    log_beta, _ = RiskSpec(alpha, p).budget()
    if math.isinf(p):
        raise ValueError("bounds exist for finite p > 1 or p < 0 only")
    z = log_beta / (p - 1.0) if p > 1.0 else -log_beta / p
    # log(1 - beta^(-1/(p-1))), or log(1 - beta^(1/p)); -inf where z underflows
    log_gap = math.log(-math.expm1(-z)) if z > 0.0 else -math.inf
    return ((p - 1.0) / p * (z + log_gap), log_beta / p) if p > 1.0 else (log_gap, 0.0)


def norm_equivalence_bounds(alpha: float, p: float) -> Tuple[float, float]:
    """Sharp constants (lower, upper) comparing the risk norm with a power norm.

    For p > 1: lower * ||Y||_p <= risk(|Y|) <= upper * ||Y||_p, upper =
    beta^(1/p), lower = min(1, (beta^(1/(p-1)) - 1)^((p-1)/p)); for p < 0 the
    sup norm, lower = 1 - beta^(1/p), upper = 1.  Both come from their logs.
    """
    lower, upper = _log_norm_constants(alpha, p)
    return min(1.0, math.exp(lower)), math.exp(upper)


def risk_level_bound(alpha: float, alpha_prime: float, p: float) -> float:
    """Multiplicative comparison across levels: risk_alpha <= bound * risk_alpha' (Y >= 0).

    It is alpha's upper constant over alpha''s uncapped lower one, in log
    space, and +inf past the float range.
    """
    upper, lower = _log_norm_constants(alpha, p)[1], _log_norm_constants(alpha_prime, p)[0]
    if not alpha_prime <= alpha:
        raise ValueError("need 0 < alpha' <= alpha < 1")
    with np.errstate(over="ignore"):  # +inf past the float range
        return float(np.exp(upper - lower))


def evar_derivative_pprime(d: DiscreteDistribution, alpha: float, pprime: float) -> float:
    """Exact conjugate-order derivative of the p > 1 risk value at its optimizer.

    It is (value - t*) (log beta - E_t[log Z]) / p', with Z the attaining
    density and t the escort distribution, P Z^p' / E Z^p', whose weights
    come from one shifted exp pass, so no power of beta or Z overflows at
    any p'.  Where Z meets the budget, E Z^p' = beta^(p' - 1), this is the
    derivative of the value in p', and it is nonpositive, as the value is
    nonincreasing in the conjugate order; near p = 1, where the solve's
    densities still miss the budget, it can come out positive.  Requires
    strictly positive atoms.  On the boundary branch, a constant variable
    among them, the value is esssup at every order and the derivative is 0.0.
    """
    if math.isnan(pprime) or math.isinf(pprime) or not pprime > 1.0:
        raise ValueError("conjugate order must be a finite real above 1")
    if essinf(d) <= 0.0:
        raise ValueError("atoms must be strictly positive")
    spec = RiskSpec(alpha, pprime / (pprime - 1.0))
    log_beta, _ = spec.budget()
    res = evar(d, spec)
    w = res.density.weights
    # value - t* is beta^(1/p) ||(Y - t*)_+||_p, and 0 on the boundary branch
    scale = res.value - res.t_star
    if scale == 0.0:
        return 0.0
    pos = w > 0.0
    logw = np.log(w[pos])
    _, e = _exp_shifted(np.log(d.probs[pos]) + pprime * logw)
    return scale * (log_beta - float(e.dot(logw)) / float(e.sum())) / pprime
