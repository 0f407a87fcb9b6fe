"""Finite discrete distributions and their quantile-level primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class DiscreteDistribution:
    """Atomic distribution of a real random variable.

    Atoms are canonicalized on construction: values sorted strictly
    increasing, bitwise-equal duplicates merged by summing probability,
    zero-probability atoms dropped, probabilities renormalized to unit sum.
    Instances are immutable and safe to share across threads.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        p = np.asarray(self.probs, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("need at least one atom")
        if v.shape != p.shape:
            raise ValueError("values and probs must have equal length")
        # the extremes decide finiteness and sign (argmin and argmax stop at a nan)
        if not (math.isfinite(v[v.argmin()]) and math.isfinite(v[v.argmax()])):
            raise ValueError("values must be finite")
        if not (p[p.argmin()] >= 0.0 and p[p.argmax()] < math.inf):
            raise ValueError("probabilities must be finite and nonnegative")
        if not np.add.reduce(p) > 0.0:
            raise ValueError("probabilities must have positive sum")
        uniq, inverse = np.unique(v, return_inverse=True)
        merged = np.bincount(inverse, weights=p, minlength=uniq.size)
        keep = merged > 0.0
        uniq, merged = uniq[keep], merged[keep]
        merged = merged / merged.sum()
        uniq.setflags(write=False)
        merged.setflags(write=False)
        object.__setattr__(self, "values", uniq)
        object.__setattr__(self, "probs", merged)

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)


def from_samples(
    values: Sequence[float], weights: Optional[Sequence[float]] = None
) -> DiscreteDistribution:
    """Build a distribution from raw samples, equally weighted by default.

    Duplicate values are merged and weights normalized to probabilities;
    ``DiscreteDistribution`` checks both.
    """
    v = np.asarray(values, dtype=float).ravel()
    return DiscreteDistribution(v, np.ones_like(v) if weights is None else weights)


def esssup(d: DiscreteDistribution) -> float:
    return float(d.values[-1])


def essinf(d: DiscreteDistribution) -> float:
    return float(d.values[0])


def expectation(d: DiscreteDistribution) -> float:
    return float(np.dot(d.probs, d.values))


def _tail_sums(x: np.ndarray) -> np.ndarray:
    """``tail[i]``: the sum of x over atom i and every atom after it; tail[n] = 0.

    Summed once from the last atom, in extended precision where the platform
    has it, and rounded once, so small tails keep their relative precision
    and every tail is near exact at any atom count.
    """
    sums = np.zeros(x.size + 1, dtype=np.longdouble)
    np.cumsum(x[::-1], dtype=np.longdouble, out=sums[1:])
    return sums[::-1].astype(float)


def _quantile_split(d: DiscreteDistribution, tail):
    """``(i, upper)``: the index of the lower quantile at level 1 - tail and
    the probability of the atoms above it, for one upper tail in (0, 1] or
    an array of them.

    P(Y <= v_i) >= 1 - tail is read as P(Y > v_i) <= tail on the upper
    tails, so the atom chosen and the tail the tail-mean density splits
    against are the same numbers: at most the quantile atom's own
    probability is left to split.
    """
    above = _tail_sums(d.probs)[::-1]  # above[k]: the mass of the top k atoms
    k = above[1:-1].searchsorted(tail, side="right")
    return d.n_atoms - 1 - k, above[k]


def _exp_shifted(terms: np.ndarray) -> Tuple[float, np.ndarray]:
    """``(m, e^(terms - m))`` with m the largest term, the one exp pass of the
    kernel: no term overflows and log sum e^terms is m + log of the sum.
    The exponentials overwrite ``terms``, which the caller owns.  No term,
    or every term -inf, gives m = -inf and no exponentials; a nan term, m = nan.
    m is read at ``argmax``: on a tie of +0.0 and -0.0 it is the first, which
    changes neither the exponentials nor m + log of their sum (at least 1).
    """
    m = float(terms[terms.argmax()]) if terms.size else -math.inf
    if m == -math.inf:
        return m, terms[:0]
    np.subtract(terms, m, out=terms)
    return m, np.exp(terms, out=terms)


def _log_moments(logp: np.ndarray, logx: np.ndarray, k: float) -> float:
    """The log-moment kernel: log sum e^logp x^k.

    ``logx`` is the finite log of x > 0 on each atom and ``logp`` its log
    probability (-inf entries contribute nothing).  The sum is taken after
    subtracting its largest term, so any k and any spread of x stay
    overflow-safe.  No atom, or every term -inf, gives -inf.
    """
    m, e = _exp_shifted(logp + k * logx)
    return m + math.log(float(np.add.reduce(e))) if e.size else m

