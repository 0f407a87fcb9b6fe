#!/usr/bin/env python3
"""Measure the gap between the scalar route and the brute-force supremum.

Draws random small distributions, computes the risk value by the
one-dimensional representation and by direct enumeration of feasible
densities on a simplex grid, and reports gap statistics per order regime.
A sanity experiment for solver and oracle health at different resolutions.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from renyi_risk import RiskSpec, evar, from_samples, sup_oracle


def random_instance(rng, n):
    values = np.sort(rng.uniform(0.0, 10.0, n))
    probs = rng.dirichlet(np.ones(n) * 2.0)
    return from_samples(values, probs)


def main() -> int:
    rng = np.random.default_rng(7)
    resolutions = (100, 200, 400)
    orders = (1.001, 1.5, 2.0, 3.0, -1.0, -3.0)
    print(f"{'resolution':>10} {'order':>6} {'instances':>9} {'max gap':>12} {'mean gap':>12} {'secs':>7}")
    for resolution in resolutions:
        for p in orders:
            gaps = []
            start = time.monotonic()
            for i in range(12):
                d = random_instance(rng, int(rng.integers(2, 5)))
                alpha = float(rng.uniform(0.2, 0.9))
                spec = RiskSpec(alpha, p)
                oracle, _ = sup_oracle(d, spec, resolution)
                direct = evar(d, spec).value
                if oracle > direct + 1e-9:
                    raise AssertionError("oracle exceeded the scalar route: weak duality broken")
                gaps.append(direct - oracle)
            elapsed = time.monotonic() - start
            print(f"{resolution:>10} {p:>6} {len(gaps):>9} {max(gaps):>12.3e} "
                  f"{float(np.mean(gaps)):>12.3e} {elapsed:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
