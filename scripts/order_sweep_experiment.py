#!/usr/bin/env python3
"""Sweep the risk value across conjugate orders and confidence levels.

Builds a skewed demo portfolio-loss sample, runs the value curve over a
conjugate-order grid at several levels, and prints tidy CSV to stdout
(redirect to a file for plotting).  Demonstrates the interpolation between
the tail mean, the Shannon member and the essential supremum.
"""

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from renyi_risk import RiskSpec, avar, conjugate, esssup, evar, from_samples


def demo_losses(seed: int = 42, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    body = rng.normal(1.0, 0.6, size=int(0.95 * n))
    tail = rng.lognormal(1.4, 0.5, size=n - body.size)
    return np.concatenate([body, tail]), np.ones(n)


def main() -> int:
    values, weights = demo_losses()
    d = from_samples(values, weights)
    writer = csv.writer(sys.stdout)
    writer.writerow(["alpha", "pprime", "p", "value", "t_star"])
    # 1 + 1e-12 and 1 + 1e-6 are the orders p of about 1e12 and 1e6, next to
    # the Shannon member at p' = 1
    pprimes = [1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0]
    for alpha in (0.5, 0.9, 0.99):
        base = avar(d, alpha)
        writer.writerow([alpha, "inf", 1.0, base.value, base.t_star])
        for pp in sorted(pprimes, reverse=True):
            p = conjugate(pp)
            res = evar(d, RiskSpec(alpha, p))
            writer.writerow([alpha, pp, p, res.value, res.t_star])
        writer.writerow([alpha, "", "", esssup(d), ""])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
