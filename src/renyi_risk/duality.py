"""Supremum-side machinery: brute-force oracle, dual norms, witnesses, Kusuoka form.

Everything here works against the defining supremum of the risk family: a
simplex-grid oracle enumerates feasible reweightings directly, each dual
norm is the maximum over one scalar of a ratio of closed-form moments,
found by one ``find_root`` solve per regime on a bracket the formulas give
(with the limit E|Z| as the other candidate), together with the extremal
pairing attaining it, and the Kusuoka (mixture of tail means)
representation is rebuilt from the attaining density.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distribution import (
    DiscreteDistribution,
    _tail_sums,
    essinf,
    esssup,
    expectation,
    from_samples,
)
from .entropy import Density
from .evar import RiskSpec, _top_atom_test, avar, conjugate, evar, evar_power
from .solver import find_root

_GRID_ROW_CAP = 50_000_000
_CHUNK = 65_536
#: The refinement's reach per atom count, in steps of a twentieth of the grid step.
_REACH = {1: 0, 2: 20, 3: 20, 4: 20, 5: 12, 6: 7}
#: The dual-norm solve's stopping width in the level u of |Z|, in units of max |Z|.
_LEVEL_TOL = 1e-11


class NoFiniteWitnessError(RuntimeError):
    """The dual-norm supremum is approached only as the scalar parameter grows."""


class DegenerateBranchError(RuntimeError):
    """The risk solve ended on a boundary branch; no interior witness exists."""


@functools.lru_cache(maxsize=8)
def _lattice(parts: int, total: int, cap: int) -> np.ndarray:
    """All integer vectors of length ``parts`` with entries in [0, cap] summing to ``total``.

    Rows are in lexicographic order, in the smallest signed integer type
    that holds ``cap``.  The oracle's simplex grid is ``_lattice(n, r, r)``
    and its refinement steps are ``_lattice(n, n * k, 2 * k) - k``; both
    depend on the shape alone, so they are read-only and cached for the
    last few shapes.
    """
    if math.comb(total + parts - 1, parts - 1) > _GRID_ROW_CAP:
        raise ValueError("atom count too large for this resolution (combinatorial blow-up)")
    dtype = np.min_scalar_type(-cap - 1)  # signed, and holds +cap
    if parts == 1:
        grid = np.full((1, 1), total, dtype)
        grid.setflags(write=False)
        return grid
    # every entry but the last two, and the budget each prefix leaves them
    head = np.zeros((1, 0), dtype=dtype)
    budget = np.array([total])
    for later in range(parts - 1, 1, -1):
        # the next entry leaves the later ones a budget they can hold
        low = np.maximum(budget - cap * later, 0)
        counts = np.minimum(budget, cap) - low + 1
        ramp = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - low, counts)
        head = np.column_stack([np.repeat(head, counts, axis=0), ramp.astype(dtype)])
        budget = np.repeat(budget, counts) - ramp
    # the last two entries split each budget b: the first runs up from
    # max(b - cap, 0) to min(b, cap) while the second runs down, so both are
    # running sums of steps of one that jump at each prefix's first row;
    # every partial sum is an entry, so the sums never leave the dtype
    low, high = np.maximum(budget - cap, 0), np.minimum(budget, cap)
    sizes = high - low + 1
    grid = np.empty((int(sizes.sum()), parts), dtype)
    for j in range(parts - 2):
        grid[:, j] = np.repeat(head[:, j], sizes)
    starts = np.cumsum(sizes) - sizes
    for j, first, last, step in ((parts - 2, low, high, 1), (parts - 1, high, low, -1)):
        col = grid[:, j]
        col[:] = step
        col[starts] = first - np.concatenate(([0], last[:-1]))
        np.cumsum(col, dtype=dtype, out=col)
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


def _first_nonnegative_steps(origin: np.ndarray, shift: int, scale: float) -> np.ndarray:
    """Per atom i, the number of steps j in [0, 2 shift] with origin_i + (j - shift) / scale < 0.

    The float expression is the one ``_scan`` builds its measures with.  It
    is nondecreasing in j, so a step j keeps entry i nonnegative exactly
    when j is at least this count.
    """
    steps = np.divide(np.arange(-shift, shift + 1), scale, dtype=np.float64)
    return np.count_nonzero(steps + origin[:, None] < 0.0, axis=1)


def _scan(d: DiscreteDistribution, pprime: float, log_beta: float,
          best: Tuple[float, np.ndarray], rows: np.ndarray, scale: float, shift: int = 0,
          origin: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """The running best (value, q) over the measures origin + (rows - shift) / scale.

    Rows are scanned in chunks of a fixed number, so the float copies stay
    small at any size; they live in one scratch block per scan, so the
    chunks allocate no chunk-sized arrays.  The objective goes first: only
    rows above the running best pay for the tests.  Grid rows (no origin)
    are lattice points, never negative, so they take the entropy-budget test
    alone.  Refinement rows (entries in [0, 2 shift]) can leave the simplex,
    and only through the atoms whose origin lies within ``shift`` steps of
    0: each such atom costs one integer comparison of its entry against
    ``_first_nonnegative_steps``, and the rows left take the budget test.
    The strict ``>`` and argmax's first index keep the earliest of equal
    rows, so chunking picks the row one pass would.
    """
    best_val, best_q = best
    bounded = []
    if origin is not None:
        low = _first_nonnegative_steps(origin, shift, scale)
        bounded = [(int(i), int(low[i])) for i in np.flatnonzero(low)]
    # the chunk's measures, its hits' measures and its objective
    m, n = min(_CHUNK, rows.shape[0]), rows.shape[1]
    scratch = np.empty(m * (2 * n + 1))
    chunk_q, hit_q, chunk_obj = (scratch[: m * n].reshape(m, n),
                                 scratch[m * n : -m].reshape(m, n), scratch[-m:])
    for start in range(0, rows.shape[0], _CHUNK):
        block = rows[start : start + _CHUNK]
        size = block.shape[0]
        Q = np.divide(block - shift if shift else block, scale, out=chunk_q[:size],
                      dtype=np.float64)
        if origin is not None:
            Q += origin
        obj = np.matmul(Q, d.values, out=chunk_obj[:size])
        hit = np.flatnonzero(obj > best_val)
        for i, least in bounded:
            hit = hit[block[hit, i] >= least]
        if hit.size == 0:
            continue
        Qh = np.take(Q, hit, axis=0, out=hit_q[: hit.size])
        hit = hit[_feasible_mask(Qh, d, pprime, log_beta)]
        if hit.size:
            k = hit[np.argmax(obj[hit])]
            best_val, best_q = float(obj[k]), Q[k].copy()
    return best_val, best_q


def sup_oracle(d: DiscreteDistribution, spec: RiskSpec,
               resolution: int) -> Tuple[float, Density]:
    """Brute-force the defining supremum on a probability-simplex grid.

    Candidate measures q (q_i = p_i Z_i) are enumerated at step
    1/resolution, those inside the regime's entropy budget are kept, and
    E YZ is maximized; one local refinement pass at a twentieth of the step
    follows, within ``_REACH`` of those steps per atom.  The constant
    density is always seeded (it is feasible by definition), so the result
    is never below the expectation.  Limited to 6 atoms; blow-up beyond
    ~5e7 grid points is rejected.
    """
    n = d.n_atoms
    if n > 6:
        raise ValueError("brute-force oracle is limited to 6 atoms")
    if not isinstance(resolution, numbers.Integral):
        raise ValueError("resolution must be an integer")
    if resolution < 10:
        raise ValueError("resolution must be at least 10")
    a, p = spec.alpha, spec.order
    if a >= 1.0:
        raise ValueError("alpha must be below 1")
    if not (p > 1.0 or p < 0.0):
        raise ValueError("no entropy-budget regime for this order")
    pprime, log_beta = conjugate(p), -math.log1p(-a)

    best = _scan(d, pprime, log_beta, (expectation(d), d.probs.copy()),
                 _lattice(n, resolution, resolution), resolution)
    k = _REACH[n]
    best_val, best_q = _scan(d, pprime, log_beta, best, _lattice(n, n * k, 2 * k),
                             20.0 * resolution, k, best[1])
    return best_val, Density(d, best_q / d.probs)


def _dual_norm_parts(d: DiscreteDistribution, weights: np.ndarray, alpha: float,
                     p: float) -> Tuple[float, Optional[np.ndarray]]:
    """Dual norm by one root solve; returns (value, |Y'| attaining it, or None).

    With W = |Z|^(p'-1) (0 for p > 1 and inf for p < 0 where Z = 0) the
    extremal pairings are Y(t) = (t + W)_+ for p > 1 and (t - W)_+ for
    p < 0.  The dual norm is the supremum over t of N/D, with N = E|Z| Y(t)
    and D the risk objective of Y(t) at s = t, so every ratio is a lower
    bound.  In both regimes Y(t) is positive exactly where |Z| exceeds a
    level u, with t = -u^(p'-1) for p > 1 and u^(p'-1) for p < 0, so the
    search runs over u in [0, max |Z|]: t over [-max W, 0] and over
    [min W, inf).  At u = max |Z| the pairing vanishes.  At u = 0 the sign
    of the slope N'D - ND' has the closed form
    sign * (beta^(1/p) E|Z| - ||Z||_p'), sign = +1 for p > 1 and -1 for
    p < 0.  Where it is not negative the ratio rises to its limit E|Z| (for
    p > 1 it is a ratio of linear functions once t >= 0), and E|Z| is the
    value.  Otherwise ``find_root`` brackets the stationary point on
    [0, max |Z|], with the closed form as its value at 0.  ``None`` marks a
    p < 0 supremum approached only as t -> inf; for p > 1 that case has the
    constant witness.
    """
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if math.isinf(p) or not (p > 1.0 or p < 0.0):
        raise ValueError("dual norm defined for finite p > 1 or p < 0")
    w = np.abs(np.asarray(weights, dtype=float).ravel())
    if w.shape != d.values.shape:
        raise ValueError("weights must match the distribution's atoms")
    high = p > 1.0
    sign = 1.0 if high else -1.0
    pr = d.probs
    pw = pr * w
    limit = float(pw.sum())
    at_limit = np.ones(w.size) if high else None
    w_max = float(w.max())
    if w_max == 0.0:  # the zero functional
        return limit, at_limit
    # levels in units of max |Z|, so W = 1 at the largest weight: max W for
    # p > 1, min W for p < 0, where p' - 1 is negative
    pos = w > 0.0
    pprime = conjugate(p)
    W = np.power(w / w_max, pprime - 1.0,
                 out=np.full(w.size, 0.0 if high else math.inf), where=pos)
    pwW = np.multiply(pw, W, out=np.zeros(w.size), where=pos)
    beta_pow = math.exp(-math.log1p(-alpha) / p)

    def parts(t: float) -> Tuple[float, float, np.ndarray]:
        """N/D, N'D - ND' (right derivatives in t) and Y(t) at a finite t.

        With A = N' and B the E|Z|W terms where Y > 0, N'D - ND' is
        sign (A K - B) + N (1 - D'), K = beta^(1/p) ||x||_p, which keeps
        the terms of size t in N and D from cancelling.
        """
        s = t + sign * W
        y = np.maximum(s, 0.0)
        on = s >= 0.0
        x = np.where(on, W, -sign * t)  # the gap sign (Y - t) of the objective at t
        m = float(pr @ x ** p)
        k = beta_pow * m ** (1.0 / p)
        num = float(pw @ y)
        # 1 - D' = beta^(1/p) M^(1/p - 1) E[x^(p-1); Y = 0], where x = |t|
        drop = beta_pow * m ** (1.0 / p - 1.0) * abs(t) ** (p - 1.0) * float(pr @ ~on)
        slope = sign * (float(pw @ on) * k - float(pwW @ on)) + num * drop
        return num / (t + sign * k), slope, y

    def to_t(u: float) -> float:
        return -sign * u ** (pprime - 1.0)

    # N'D - ND' where Y > 0 wherever Z is and N (1 - D') has died out: at
    # t = 0 for p > 1, as t -> inf for p < 0
    tail = sign * (limit * beta_pow * float(pr @ W ** p) ** (1.0 / p) - float(pwW.sum()))
    if tail >= 0.0:
        return limit, at_limit
    u, _ = find_root(lambda u: tail if u == 0.0 else parts(to_t(u))[1], 0.0, 1.0, _LEVEL_TOL)
    r, _, y = parts(to_t(u))
    if r >= limit:
        return r, w_max ** (pprime - 1.0) * y
    return limit, at_limit


def dual_norm(z: Density, alpha: float, p: float) -> float:
    """Dual norm of a density against the risk-induced norm, by one root solve.

    The dual norm is the supremum over t of E[Z Y(t)] / D(t) for the
    one-parameter family of extremal pairings Y(t), clipped at zero so that
    maximizers vanishing on some atoms are covered, with D(t) the risk
    objective of Y(t) at t.  Its limit E|Z| is always a candidate, and a
    closed form says whether the ratio still rises toward it.  Otherwise
    ``find_root`` solves N'D = ND' once, on the bracket the formulas give:
    t in [-max W, 0] for p > 1, where the ratio is monotone for t >= 0, and
    t in [min W, inf) for p < 0.  Where Z vanishes on some atoms the p < 0
    ratio can peak beyond the largest finite W, so that tail is searched
    too.  That the ratio is unimodal is tested against a dense grid, not
    proved.  Memory and time per evaluation are linear in the atoms.
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

    It is sign(Y) times the attaining density of the risk of |Y|, read off at
    each atom's |Y|.  Both sides of the equality are 1-homogeneous in Z', so
    any positive multiple attains it too.  Requires the risk solve of |Y| to
    reach an interior optimizer; boundary branches (the shared top-atom
    pre-test, or alpha = 1) raise ``DegenerateBranchError``.
    """
    a, p = spec.alpha, spec.order
    if math.isinf(p) or not (p > 1.0 or p < 0.0):
        raise ValueError("witness defined for finite p > 1 or p < 0")
    dabs = from_samples(np.abs(d.values), d.probs)
    if a == 1.0 or _top_atom_test(dabs, a)[0] >= 0.0:
        raise DegenerateBranchError("risk of |Y| is attained on the top atom; no interior witness")
    weights = evar_power(dabs, a, p).density.weights
    return _sign(d.values) * weights[np.searchsorted(dabs.values, np.abs(d.values))]


def hb_witness_for(z: Density, alpha: float, p: float) -> np.ndarray:
    """Per-atom variable Y' attaining E Y'Z = risk(|Y'|) * dual_norm(Z).

    It is the extremal pairing Y(t) at the optimizer of the dual-norm
    solve, signed like Z, so both come from one computation: (t + W)_+ for
    p > 1 and (t - W)_+ for p < 0, zero wherever Z is.  For p > 1 with the
    supremum only in the t -> inf limit the constant witness is returned
    (exact for unit-mean densities).  For p < 0 that case has no finite
    witness and raises ``NoFiniteWitnessError``.
    """
    y = _dual_norm_parts(z.dist, z.weights, alpha, p)[1]
    if y is None:
        raise NoFiniteWitnessError(
            "supremum approached only as t -> inf; the dual norm equals E|Z|"
        )
    return _sign(z.weights) * y


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
    # heights: the distinct density values, tail[k] = P(Z >= heights[k])
    heights, inverse = np.unique(z.weights, return_inverse=True)
    tail = _tail_sums(np.bincount(inverse, weights=z.dist.probs))
    breakpoints = np.concatenate(([0.0], 1.0 - tail[1:]))
    masses = tail[1:] * np.diff(heights)
    if heights[0] > 0.0:
        return KusuokaMeasure(breakpoints, np.concatenate((heights[:1], masses)),
                              breakpoints, heights)
    return KusuokaMeasure(breakpoints[1:], masses, breakpoints, heights)


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
