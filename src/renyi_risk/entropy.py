"""Renyi entropy and divergences of discrete densities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import DiscreteDistribution, _log_moments

MEAN_TOL = 1e-10


@dataclass(frozen=True)
class Density:
    """Nonnegative per-atom reweighting with unit mean under its base distribution."""

    dist: DiscreteDistribution
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape != self.dist.values.shape:
            raise ValueError("weights must match the base distribution's atoms")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("density weights must be nonnegative")
        mean = float(np.dot(self.dist.probs, w))
        if abs(mean - 1.0) > MEAN_TOL:
            raise ValueError(f"density mean {mean!r} is not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def renyi_entropy(z: Density, q: float) -> float:
    """Entropy of order q; q is any real or +inf.

    Orders 0, 1 and +inf are dispatched exactly by value, everything else
    uses log E Z^q / (q - 1) from the log-moment kernel.  The convention
    0 log 0 = 0 applies at q = 1; zero weights count as exact zeros at
    q = 0.  Negative orders require a strictly positive density.
    """
    if math.isnan(q) or (math.isinf(q) and q < 0):
        raise ValueError("order must be a real number or +inf")
    w = z.weights
    p = z.dist.probs
    pos = w > 0.0
    if q < 0.0 and not np.all(pos):
        raise ValueError("negative order needs a strictly positive density")
    if q == 0.0:
        return float(-np.log(p[pos].sum()))
    if q == 1.0:
        wp = w[pos]
        return float(np.dot(p[pos] * wp, np.log(wp)))
    if math.isinf(q):
        return float(np.log(w.max()))
    return _log_moments(np.log(p[pos]), np.log(w[pos]), q) / (q - 1.0)


def hellinger_divergence(z: Density, q: float) -> float:
    """(E Z^q - 1) / (q - 1); undefined at q = 1 (use kl_divergence)."""
    if q == 1.0:
        raise ValueError("order 1 is the Kullback-Leibler case")
    if math.isnan(q) or math.isinf(q):
        raise ValueError("order must be a finite real != 1")
    w = z.weights
    p = z.dist.probs
    pos = w > 0.0
    if q < 0.0 and not np.all(pos):
        raise ValueError("negative order needs a strictly positive density")
    ezq = math.exp(_log_moments(np.log(p[pos]), np.log(w[pos]), q))
    return (ezq - 1.0) / (q - 1.0)


def kl_divergence(z: Density) -> float:
    """Relative entropy E Z log Z of the reweighted measure from the base."""
    return renyi_entropy(z, 1.0)
