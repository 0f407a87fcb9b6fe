"""Densities and their Renyi entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import DiscreteDistribution, _log_moments

MEAN_TOL = 1e-10
#: Bound on |q - 1| and on |q - 1| max |log Z| below which ``renyi_entropy``
#: takes its form that is exact as q -> 1.
_NEAR_ONE = 0.25


@dataclass(frozen=True)
class Density:
    """Nonnegative per-atom reweighting with unit mean under its base distribution.

    Checked in this order: one weight per atom, finite, nonnegative (-0.0
    passes), mean 1 within ``MEAN_TOL``.  ``weights`` is a read-only copy.
    """

    dist: DiscreteDistribution
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape != self.dist.values.shape:
            raise ValueError("weights must match the base distribution's atoms")
        # the extremes decide both checks (argmin and argmax stop at a nan)
        lo, hi = w[w.argmin()], w[w.argmax()]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weights must be finite")
        if lo < 0.0:
            raise ValueError("density weights must be nonnegative")
        mean = float(np.dot(self.dist.probs, w))
        if abs(mean - 1.0) > MEAN_TOL:
            raise ValueError(f"density mean {mean!r} is not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def renyi_entropy(z: Density, q: float) -> float:
    """Entropy of order q; q is any real or +inf.

    Orders 0, 1 and +inf are dispatched exactly by value.  Near 1, where
    |q - 1| and |q - 1| max |log Z| are below ``_NEAR_ONE``, it is
    log1p(E_t[expm1((q - 1) log Z)]) / (q - 1) - log E Z, with t the
    weights P Z / E Z: the entropy of Z / E Z, which keeps its precision
    as q -> 1, where log E Z^q / (q - 1) loses eps / |q - 1| and divides
    the rounding of E Z by q - 1.  Everything else is log E Z^q / (q - 1)
    from the log-moment kernel.  The convention 0 log 0 = 0 applies at
    q = 1; zero weights count as exact zeros at q = 0.  Negative orders
    require a strictly positive density.
    """
    if math.isnan(q) or (math.isinf(q) and q < 0):
        raise ValueError("order must be a real number or +inf")
    w = z.weights
    p = z.dist.probs
    pos = w > 0.0
    if q < 0.0 and not np.all(pos):
        raise ValueError("negative order needs a strictly positive density")
    if q == 0.0:
        # 0.0 - x, not -x: a full support gives +0.0, not -0.0
        return float(0.0 - np.log(p[pos].sum()))
    if q == 1.0:
        wp = w[pos]
        return float(np.dot(p[pos] * wp, np.log(wp)))
    if math.isinf(q):
        return float(np.log(w.max()))
    k = q - 1.0
    logw = np.log(w[pos])
    if abs(k) < _NEAR_ONE and abs(k) * float(np.abs(logw).max()) < _NEAR_ONE:
        pz = p[pos] * w[pos]
        total = float(pz.sum())
        return math.log1p(float(pz.dot(np.expm1(k * logw))) / total) / k - math.log(total)
    return _log_moments(np.log(p[pos]), logw, q) / k

