"""Supremum-side machinery: brute-force oracle, dual norms, witnesses, Kusuoka form.

Everything here works against the defining supremum of the risk family: a
simplex-grid oracle enumerates feasible reweightings directly, each dual
norm is E max(|Z|, u*) at the least water level u* whose floored density
meets the entropy budget, found by one ``find_root`` solve, together with
the extremal pairing attaining it, and the Kusuoka (mixture of tail means)
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
    _quantile_split,
    _tail_sums,
    esssup,
    expectation,
    from_samples,
)
from .entropy import Density, _entropy
from .evar import RiskSpec, evar
from .solver import find_root

_GRID_ROW_CAP = 50_000_000
#: Rows per aligned block of the oracle's lattices, which ``_scan`` skips or
#: scans whole.  A power of two, so that every scanned row keeps its position
#: modulo the BLAS kernel width and its objective rounds as in one pass over
#: all rows.
_BLOCK = 256
#: Most rows per scan chunk, a multiple of ``_BLOCK`` small enough that a
#: chunk's scratch (1.0-2.2 MB at 3-5 atoms) stays near a 2 MB per-core cache.
_CHUNK = 16_384
#: The refinement's reach per atom count, in steps of a twentieth of the grid step.
_REACH = {1: 0, 2: 20, 3: 20, 4: 20, 5: 12, 6: 7}
#: The dual-norm solve's stopping width in the water level u, in units of max |Z|.
#: The value E max(x, u) moves by up to the width itself, so any coarser width
#: shows in the value (1e-11 leaves it up to 1.3e-10 off); the solve runs to
#: float resolution.
_LEVEL_TOL = 1e-16


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
    """Entropy-budget feasibility of candidate measures q (rows, q_i = p_i Z_i).

    At p' != 1 the budget E Z^p' <= beta^(p' - 1) (>= for p' < 1) is tested
    as E (Z/beta)^p' against 1/beta, so neither beta^(p' - 1) nor
    P^(1 - p'), which overflow near p = 1, is formed, and a power of Z/beta
    that overflows puts its row outside the budget.  Overwrites Q.
    """
    p = d.probs
    if pprime == 1.0:
        safe = np.where(Q > 0.0, Q, 1.0)
        terms = np.where(Q > 0.0, Q * (np.log(safe) - np.log(p)), 0.0)
        return terms.sum(axis=1) <= log_beta
    inv_beta = math.exp(-log_beta)
    # column by column: twice as fast as one broadcast over rows of 3-6 entries
    for j, scale in enumerate((inv_beta / p).tolist()):
        Q[:, j] *= scale
    with np.errstate(over="ignore"):
        Q **= pprime  # the operator, for numpy's square and sqrt fast paths
    s = Q @ p
    return s <= inv_beta if pprime > 1.0 else s >= inv_beta


@functools.lru_cache(maxsize=8)
def _block_boxes(parts: int, total: int, cap: int) -> np.ndarray:
    """Per ``_BLOCK``-row block of ``_lattice(parts, total, cap)``, its top corner and column maxima.

    Every row of a block lies in the box between its column minima and
    maxima and sums to ``total``.  Over that box at that sum, E YZ for values
    increasing along the columns, as a distribution's are, is largest at
    one integer point whatever the values: the linear program's greedy
    solution, which starts from the minima and fills the last column first,
    then the next, up to their maxima.  Shape (2, blocks, parts) in the
    lattice's type: [0] holds each block's top corner, [1] its maxima; the
    last block may be short.  Read-only and cached for the last few shapes,
    like the lattice.
    """
    rows = _lattice(parts, total, cap)
    starts = np.arange(0, rows.shape[0], _BLOCK)
    lo, hi = np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts)
    room = (hi - lo)[:, ::-1].astype(np.int64)
    left = total - lo.sum(axis=1, dtype=np.int64)
    fill = np.clip(left[:, None] - (np.cumsum(room, axis=1) - room), 0, room)
    boxes = np.stack([lo + fill[:, ::-1].astype(lo.dtype), hi])
    boxes.setflags(write=False)
    return boxes


def _block_bounds(d: DiscreteDistribution, shape: Tuple[int, int, int], scale: float,
                  shift: int = 0, origin: Optional[np.ndarray] = None) -> np.ndarray:
    """Per block of ``_lattice(*shape)``, a value no row of it beats in ``_scan``'s E YZ.

    It is E YZ at the block's top corner (``_block_boxes``), whose measure
    origin + (corner - shift) / scale bounds every row's exactly, plus a
    margin of 1e-12 (1 + max |y|), far above the rounding of either float
    sum.  A block whose column maxima give a negative measure in some
    column, through the float expression ``_scan`` builds its measures
    with, has every row outside the simplex and gets -inf: that expression
    is nondecreasing in the step.
    """
    corner, top = _block_boxes(*shape)
    Q = np.divide(corner - shift if shift else corner, scale, dtype=np.float64)
    if origin is not None:
        Q += origin
    bound = Q @ d.values + 1e-12 * (1.0 + float(np.abs(d.values).max()))
    if origin is not None:
        most = np.divide(top - shift if shift else top, scale, dtype=np.float64) + origin
        bound[np.any(most < 0.0, axis=1)] = -np.inf
    return bound


def _scan(d: DiscreteDistribution, pprime: float, log_beta: float,
          best: Tuple[float, np.ndarray], shape: Tuple[int, int, int], scale: float,
          shift: int = 0, origin: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """The running best (value, q) over the measures origin + (rows - shift) / scale.

    The rows are ``_lattice(*shape)`` in aligned blocks of ``_BLOCK``, and a
    block is scanned only while its ``_block_bounds`` entry is above the
    running best.  That entry is the exact largest E YZ over the block's box
    plus a margin of 1e-12 (1 + max |y|), which covers the rounding of both
    float sums, so no row of a skipped block has a float E YZ above the best
    of that moment.  The best only rises, so no skipped row could have
    become it later either: the winner is the row one pass over every row
    picks, the earliest feasible row of the largest E YZ.  The surviving
    blocks are copied out in order into one scratch block per scan, one
    block in the first chunk and twice as many in each next one up to
    ``_CHUNK`` rows, so that early chunks raise the best before many rows
    pay for a test.  Each block lands at a multiple of ``_BLOCK`` and a
    short last block at the end, so every row keeps its position modulo the
    BLAS kernel width and its objective rounds as in that one pass.  In each
    chunk E YZ goes first: only rows above the running best pay for the
    tests.  Grid rows (no origin) are lattice points, never negative, so
    they take the entropy-budget test alone.  Refinement rows (entries in
    [0, 2 shift]) can leave the simplex, and only through the atoms whose
    measure at step 0 is negative: each such atom costs one test of the
    hits' own measures in its column, and the rows left take the budget
    test.  The strict ``>`` and argmax's first index keep the earliest of
    equal rows.
    """
    best_val, best_q = best
    rows = _lattice(*shape)
    bound = _block_bounds(d, shape, scale, shift, origin)
    live = np.flatnonzero(bound > best_val)
    bounded = []  # the columns where some step gives a negative measure
    if origin is not None:
        bounded = np.flatnonzero(np.divide(-shift, scale) + origin < 0.0).tolist()
    full, n = rows.shape[0] // _BLOCK, rows.shape[1]
    blocks = rows[: full * _BLOCK].reshape(full, _BLOCK, n)
    # the chunk's rows, measures, hits' measures, objective and, for
    # refinement rows, the origin repeated on every row: added block to
    # block, the origin costs one pass over the chunk, where broadcast from
    # one row it costs an n-entry loop per row
    m = min(_CHUNK, live.size * _BLOCK, rows.shape[0])
    chunk_rows = np.empty((m, n), rows.dtype)
    scratch = np.empty(m * ((2 if origin is None else 3) * n + 1))
    chunk_q, hit_q, chunk_obj = (scratch[: m * n].reshape(m, n),
                                 scratch[m * n : 2 * m * n].reshape(m, n), scratch[-m:])
    if origin is not None:
        origins = scratch[2 * m * n : 3 * m * n].reshape(m, n)
        origins[:] = origin
    per = 1
    while live.size:
        take, live = live[:per], live[per:]
        per = min(2 * per, _CHUNK // _BLOCK)
        whole = take[take < full]  # all but a short last block
        size = whole.size * _BLOCK
        np.take(blocks, whole, axis=0, out=chunk_rows[:size].reshape(whole.size, _BLOCK, n))
        if whole.size < take.size:
            tail = rows[full * _BLOCK :]
            chunk_rows[size : size + tail.shape[0]] = tail
            size += tail.shape[0]
        block = chunk_rows[:size]
        Q = np.divide(block - shift if shift else block, scale, out=chunk_q[:size],
                      dtype=np.float64)
        if origin is not None:
            np.add(Q, origins[:size], out=Q)
        obj = np.matmul(Q, d.values, out=chunk_obj[:size])
        hit = np.flatnonzero(obj > best_val)
        for i in bounded:
            hit = hit[Q[hit, i] >= 0.0]
        if hit.size == 0:
            continue
        Qh = np.take(Q, hit, axis=0, out=hit_q[: hit.size])
        hit = hit[_feasible_mask(Qh, d, pprime, log_beta)]
        if hit.size:
            k = hit[np.argmax(obj[hit])]
            best_val, best_q = float(obj[k]), Q[k].copy()
            live = live[bound[live] > best_val]
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
    log_beta, pprime = spec.budget()
    best = _scan(d, pprime, log_beta, (expectation(d), d.probs.copy()),
                 (n, resolution, resolution), resolution)
    k = _REACH[n]
    best_val, best_q = _scan(d, pprime, log_beta, best, (n, n * k, 2 * k),
                             20.0 * resolution, k, best[1])
    return best_val, Density(d, best_q / d.probs)


def _dual_norm_parts(d: DiscreteDistribution, weights: np.ndarray, alpha: float,
                     p: float) -> Tuple[float, np.ndarray]:
    """Dual norm by one root solve in the water level; returns (value, |Y'| attaining it).

    The unit dual ball is the solid hull of the densities inside the entropy
    budget, so the dual norm is E max(|Z|, u*), with u* the least level u at
    which max(|Z|, u) / E max(|Z|, u) meets the budget.  In units of
    max |Z|, x = |Z| / max |Z|, the solve roots the slack
    log beta - H_p'(v / E v), v = max(x, u), H_p' being the Renyi entropy
    of order p' (``_entropy``: v / E v needs no checks).  Raising the floor u gives a density majorized by the last
    one, so the slack is nondecreasing in u, with the slope
    p' P(x < u) (-expm1((p' - 1) z))/((p' - 1) E v), z = log(u / E v) - H_p',
    read off the entropy it already has (-z P(x < u)/E v at p' = 1).  It is
    constant below min x and equals log beta > 0 at u = 1.  Where it is not
    negative at min x, u* = min x and the value is E|Z|; otherwise ``find_root``
    brackets u* on [min x, 1] and runs to its width, with no stop at a
    slack within rounding, as the value E v moves with u itself.  The
    attaining pairing is (x^(p'-1) - u*^(p'-1))_+ for p > 1 and
    (u*^(p'-1) - x^(p'-1))_+ for p < 0, zero wherever Z is; in the E|Z|
    case it is the constant.  Both sides of the pairing equality are
    1-homogeneous in Y', so it is returned in units of max |Z| and divided
    by |p' - 1|, which keeps it finite near p' = 1 and gives
    (log x - log u*)_+ at p' = 1 (p = +inf).
    """
    log_beta, pprime = RiskSpec(alpha, p).budget()
    w = np.abs(np.asarray(weights, dtype=float).ravel())
    if w.shape != d.values.shape:
        raise ValueError("weights must match the distribution's atoms")
    pr = d.probs
    w_max = float(w.max())
    if w_max == 0.0:  # the zero functional
        return 0.0, np.ones(w.size)
    x = w / w_max
    e = pprime - 1.0

    def slack(u: float) -> Tuple[float, float]:
        if u >= 1.0:  # the constant density, of entropy 0
            return log_beta, 0.0
        v = np.maximum(x, u)
        mean = float(pr @ v)
        h = _entropy(pr, v / mean, pprime)  # v / E v is a density by construction
        below = float(pr @ (x < u))
        if below == 0.0:  # u <= min x, where the slack is constant
            return log_beta - h, 0.0
        z = math.log(u / mean) - h
        return log_beta - h, pprime * below / mean * (-math.expm1(e * z) / e if e else -z)

    low = float(x.min())
    first = slack(low)
    if first[0] >= 0.0:
        return float(pr @ w), np.ones(w.size)
    # find_root evaluates low first: the pre-test's pair, not a second pass
    u, _ = find_root(lambda v: first if v == low else slack(v), low, 1.0, _LEVEL_TOL)
    # (x^e - u^e) / e, positive exactly where x > u in both regimes, as
    # x^e (1 - (u/x)^e) / e; at p' = 1 it is the limit log(x/u)
    top = x > u
    gap = np.log(x[top] / u)
    y = np.zeros(x.size)
    y[top] = -np.expm1(-e * gap) / e * x[top] ** e if e else gap
    return w_max * float(pr @ np.maximum(x, u)), y


def dual_norm(z: Density, alpha: float, p: float) -> float:
    """Dual norm of a density against the risk-induced norm, as a water level.

    It is E max(|Z|, u*), with u* the least level at which the density
    max(|Z|, u) / E max(|Z|, u) meets the entropy budget: min |Z| where
    |Z| / E|Z| already does, else the root of one ``find_root`` solve.
    Every (alpha, p) with an entropy budget has one, +inf included.  Memory
    and time per evaluation are linear in the atoms.
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

    It is sign(Y) times ``evar``'s attaining density of the risk of |Y|,
    read off at each atom's |Y|, for every request with an entropy budget
    (``RiskSpec.budget``).  On the boundary branch, beta P(|Y| = esssup |Y|)
    >= 1, that density is the normalized indicator of the top atom of |Y|.
    Both sides of the equality are 1-homogeneous in Z', so any positive
    multiple attains it too.
    """
    spec.budget()  # outside the budget evar answers in closed form, with no witness
    dabs = from_samples(np.abs(d.values), d.probs)
    weights = evar(dabs, spec).density.weights
    return _sign(d.values) * weights[np.searchsorted(dabs.values, np.abs(d.values))]


def hb_witness_for(z: Density, alpha: float, p: float) -> np.ndarray:
    """Per-atom variable Y' attaining E Y'Z = risk(|Y'|) * dual_norm(Z).

    It is the pairing of the dual-norm solve at its water level u*, signed
    like Z, so both come from one computation: with x = |Z| / max |Z|,
    |x^(p'-1) - u*^(p'-1)| / |p' - 1| where x > u*, else 0, and the signed
    constant where the dual norm is E|Z|.  Every (alpha, p) with an entropy
    budget has one; at p = +inf it is (log x - log u*)_+.
    """
    return _sign(z.weights) * _dual_norm_parts(z.dist, z.weights, alpha, p)[1]


@dataclass(frozen=True)
class KusuokaMeasure:
    """Discrete mixing measure over tail levels, stored as its distortion profile.

    The distortion is h_k = ``heights[k]`` from level 1 - ``tails[k]`` on, with
    tails 1 = tau_0 > tau_1 > ... > 0 and heights nonnegative, nondecreasing;
    the measure puts mass tau_k (h_k - h_(k-1)) at level 1 - tau_k (h_(-1) = 0).
    Its one invariant, total mass 1, is also the integral of the distortion.
    ``levels``, ``masses`` (without the level-0 entry where h_0 = 0),
    ``breakpoints``, ``atoms`` and ``distortion`` are views.
    """

    tails: np.ndarray
    heights: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.tails, dtype=float).ravel()
        h = np.asarray(self.heights, dtype=float).ravel()
        if t.size == 0 or t.shape != h.shape:
            raise ValueError("tails and heights must pair up")
        if t[0] != 1.0 or not (np.all(t[1:] < t[:-1]) and t[-1] > 0.0):
            raise ValueError("tails must start at 1 and decrease strictly, staying above 0")
        if not (h[0] >= 0.0 and np.all(h[1:] >= h[:-1])):
            raise ValueError("heights must be nonnegative and nondecreasing")
        if not abs(float(np.dot(t, np.diff(h, prepend=0.0))) - 1.0) <= 1e-8:
            raise ValueError("total mass must be 1")
        for name, arr in (("tails", t), ("heights", h)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def breakpoints(self) -> np.ndarray:
        return 1.0 - self.tails

    @property
    def levels(self) -> np.ndarray:
        return self.breakpoints[int(self.heights[0] == 0.0):]

    @property
    def masses(self) -> np.ndarray:
        return (self.tails * np.diff(self.heights, prepend=0.0))[int(self.heights[0] == 0.0):]

    @property
    def atoms(self):
        return [(float(l), float(m)) for l, m in zip(self.levels, self.masses)]

    @property
    def distortion(self):
        return [(float(u), float(h)) for u, h in zip(self.breakpoints, self.heights)]


def kusuoka(d: DiscreteDistribution, spec: RiskSpec) -> KusuokaMeasure:
    """Mixture-of-tail-means representation built from the attaining density.

    Its heights are the density's distinct values h and its tails P(Z >= h),
    from one reverse sum; a tail that rounds onto the next spans no level, so
    its height folds into the next.  Available whenever the risk solve returns
    a density (boundary indicator branches included).
    """
    res = evar(d, spec)
    if res.density is None:
        raise ValueError("no attaining density in this regime")
    heights, inverse = np.unique(res.density.weights, return_inverse=True)
    tails = np.minimum(_tail_sums(np.bincount(inverse, weights=d.probs))[:-1], 1.0)
    tails[0] = 1.0
    keep = np.append(tails[1:] < tails[:-1], True)
    return KusuokaMeasure(tails[keep], heights[keep])


def kusuoka_evaluate(m: KusuokaMeasure, d: DiscreteDistribution) -> float:
    """Integrate tail means of the distribution against the mixing measure.

    That is M + sum_k (h_k - h_(k-1)) I(tau_k), with M = esssup and I(tau)
    the integral of Y - M over the top tau: the atoms above the tail mean's
    quantile atom from one reverse sum of P (Y - M), plus the share of that
    atom the tail leaves.  No term is positive, and no tail divides.
    """
    M = esssup(d)
    idx, upper = _quantile_split(d, m.tails)
    centred = d.values - M
    tail_integral = _tail_sums(d.probs * centred)[idx + 1] + (m.tails - upper) * centred[idx]
    return M + float(np.dot(np.diff(m.heights, prepend=0.0), tail_integral))
