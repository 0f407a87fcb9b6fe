"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass line once its assertions hold, so a verbose
run reads as a checklist.  Random instances are seeded and deterministic.
"""

import math
import time

import numpy as np

from renyi_risk import (
    Density,
    RiskSpec,
    conjugate,
    dual_norm,
    dual_norm_raw,
    esssup,
    evar,
    evar_derivative_pprime,
    expectation,
    from_samples,
    hb_density_for,
    hb_witness_for,
    kusuoka,
    kusuoka_evaluate,
    norm_equivalence_bounds,
    renyi_entropy,
    sup_oracle,
)
from oracles import power_norm, rand_dist

LOG = math.log


def report(num, text):
    print(f"[acceptance {num:>2}] PASS  {text}")


def pair(d, weights):
    return float(np.dot(d.probs * d.values, weights))


def test_c01_sharp_indicator_reproduction():
    start = time.monotonic()
    for alpha in (0.5, 0.8, 0.95):
        d = from_samples([0.0, 1.0], weights=[alpha, 1.0 - alpha])
        for p in (1.5, 2.0, 4.0):
            val = evar(d, RiskSpec(alpha, p)).value
            assert abs(val - 1.0) <= 1e-9
            assert abs(power_norm(d, p) - (1.0 - alpha) ** (1.0 / p)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"indicator value 1 and norm (1-a)^(1/p) across 9 cases in {elapsed:.3f}s")


def test_c02_order_independent_entropy():
    for alpha in (0.3, 0.9):
        d = from_samples([0.0, 1.0], weights=[alpha, 1.0 - alpha])
        z = Density(d, np.array([0.0, 1.0 / (1.0 - alpha)]))
        target = LOG(1.0 / (1.0 - alpha))
        for q in (0.0, 0.5, 1.0, 2.0, 10.0, math.inf):
            assert abs(renyi_entropy(z, q) - target) <= 1e-12
    report(2, "two-point density entropy equals log(1/(1-a)) at six orders, two levels")


def test_c03_strong_duality_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    alphas = (0.25, 0.5, 0.9)
    orders = (1.5, 2.0, 3.0, -1.0, -3.0)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 5))
        d = rand_dist(rng, n, lo=0.0, hi=10.0)
        spec = RiskSpec(alphas[i % len(alphas)], orders[i % len(orders)])
        oracle_val, oracle_z = sup_oracle(d, spec, 400)
        direct = evar(d, spec).value
        gap = abs(direct - oracle_val)
        worst = max(worst, gap)
        assert gap <= 5e-3
        assert oracle_val <= direct + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"50 instances, |scalar route - simplex oracle| <= 5e-3 "
              f"(worst {worst:.2e}) in {elapsed:.1f}s")


def test_c04_regime_collapses():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = rand_dist(rng, 4)
        top = esssup(d)
        for p in (0.25, 0.5, 0.75):
            r = evar(d, RiskSpec(float(rng.uniform(0, 0.99)), p))
            assert r.value == top
            assert r.iterations == 0 and r.branch == "esssup_collapse"
    # degenerate negative orders: top atom holds at least 1 - alpha
    for _ in range(10):
        v = np.sort(rng.uniform(0, 10, 3))
        p_top = float(rng.uniform(0.55, 0.9))
        rest = rng.dirichlet(np.ones(2)) * (1.0 - p_top)
        d = from_samples(v, np.append(rest, p_top))
        r = evar(d, RiskSpec(0.5, float(-rng.uniform(0.5, 4.0))))
        assert r.value == esssup(d)
        assert r.branch == "degenerate_negative_order" and r.iterations == 0
    report(4, "orders in (0,1) and degenerate negative orders return esssup exactly, no solver")


def test_c05_monotonicity_chain():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rand_dist(rng, 5)
        a = 0.5
        chain = [
            evar(d, RiskSpec(a, 1.0)).value,          # tail mean
            evar(d, RiskSpec(a, 10.0 / 9.0)).value,   # p' = 10
            evar(d, RiskSpec(a, 1.5)).value,          # p' = 3
            evar(d, RiskSpec(a, 3.0)).value,          # p' = 1.5
            evar(d, RiskSpec(a, math.inf)).value,     # p' = 1
            evar(d, RiskSpec(a, -3.0)).value,         # p' = 0.75
            evar(d, RiskSpec(a, -1.0)).value,         # p' = 0.5
            esssup(d),
        ]
        for lo, hi in zip(chain, chain[1:]):
            assert hi >= lo - 1e-8
    report(5, "20 random 5-atom chains ordered from tail mean up to esssup, slack 1e-8")


def test_c06_limits():
    d = from_samples([0.0, 1.0, 2.0, 3.0, 4.0])
    target = evar(d, RiskSpec(0.5, 1.0)).value
    down = [abs(evar(d, RiskSpec(0.5, 1.0 + h)).value - target) for h in (1e-1, 1e-2, 1e-3)]
    assert down[0] > down[1] > down[2]
    top = esssup(d)
    up = [abs(evar(d, RiskSpec(0.01, -h)).value - top) for h in (1e-1, 1e-2, 1e-3)]
    assert up[0] > up[1] > up[2]
    report(6, f"gaps to the tail mean {down} and to esssup {up} both decrease")


def test_c07_log_convexity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rand_dist(rng, 5, lo=0.05)
        for _ in range(10):
            pp0, pp1 = np.sort(rng.uniform(1.05, 15.0, 2))
            lam = float(rng.uniform(0.0, 1.0))
            ppl = (1.0 - lam) * pp0 + lam * pp1
            v0 = evar(d, RiskSpec(0.5, conjugate(float(pp0)))).value
            vl = evar(d, RiskSpec(0.5, conjugate(float(ppl)))).value
            v1 = evar(d, RiskSpec(0.5, conjugate(float(pp1)))).value
            assert LOG(vl) <= (1.0 - lam) * LOG(v0) + lam * LOG(v1) + 1e-9
    report(7, "log value convex along 200 random conjugate-order chords, slack 1e-9")


def test_c08_order_derivative():
    rng = np.random.default_rng(8)
    h = 1e-4
    checked = 0
    while checked < 10:
        d = rand_dist(rng, 4, lo=0.5, hi=10.0, max_top=0.4)
        pp = float(rng.uniform(1.3, 6.0))
        exact = evar_derivative_pprime(d, 0.5, pp)
        fd = (evar(d, RiskSpec(0.5, conjugate(pp + h))).value
              - evar(d, RiskSpec(0.5, conjugate(pp - h))).value) / (2.0 * h)
        assert abs(exact - fd) <= 1e-3 * max(abs(exact), abs(fd))
        assert exact <= 1e-12
        checked += 1
    report(8, "closed-form conjugate-order derivative matches central differences, rel 1e-3")


def test_c09_kusuoka_identity():
    rng = np.random.default_rng(9)
    orders = (2.0, 3.0, -1.0)
    for i in range(20):
        d = rand_dist(rng, 4)
        spec = RiskSpec(float(rng.uniform(0.2, 0.9)), orders[i % 3])
        m = kusuoka(d, spec)
        assert abs(kusuoka_evaluate(m, d) - evar(d, spec).value) <= 1e-8
    # order 1 at an atom boundary reproduces the classical point mass
    d = from_samples([0.0, 1.0])
    m = kusuoka(d, RiskSpec(0.5, 1.0))
    assert m.atoms == [(0.5, 1.0)]
    report(9, "mixing measure reintegrates to the risk value on 20 instances; order 1 gives d_alpha")


def test_c10_hahn_banach_and_alternative_dual():
    rng = np.random.default_rng(10)
    for p_set, regime in (((1.5, 2.0, 3.0), "p>1"), ((-1.0, -2.0, -3.0), "p<0")):
        for i in range(20):
            d = rand_dist(rng, 4, lo=0.0, max_top=0.4)
            p = p_set[i % 3]
            a = 0.5
            spec = RiskSpec(a, p)

            zprime = hb_density_for(d, spec)
            lhs = float(np.dot(d.probs * d.values, zprime))
            rhs = evar(d, spec).value * dual_norm_raw(d, zprime, a, p)
            assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))

            q = rng.dirichlet(np.ones(4) * 1.5)
            z = Density(d, q / d.probs)
            y = hb_witness_for(z, a, p)
            lhs = float(np.dot(d.probs * z.weights, y))
            dy = from_samples(np.abs(y), d.probs)
            rhs = evar(dy, spec).value * dual_norm(z, a, p)
            assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))

            r = evar(d, spec)
            assert dual_norm(r.density, a, p) <= 1.0 + 1e-6
            if i % 5 == 0:
                # weak duality over random densities inside the unit dual ball
                trials = np.random.default_rng(i)
                for _ in range(10):
                    z = Density(d, trials.dirichlet(np.ones(d.n_atoms)) / d.probs)
                    if dual_norm(z, a, p) <= 1.0 + 1e-9:
                        assert float(np.dot(d.probs * d.values, z.weights)) <= r.value + 1e-6
    report(10, "pairing equalities at rel 1e-6 and unit dual ball for attaining densities, both regimes")


def test_c11_norm_sandwiches():
    rng = np.random.default_rng(11)
    for i in range(50):
        d = rand_dist(rng, 4, lo=0.0)
        a = float(rng.uniform(0.1, 0.9))
        p = float(rng.choice([1.5, 2.0, 3.0, 5.0]))
        lower, upper = norm_equivalence_bounds(a, p)
        val = evar(d, RiskSpec(a, p)).value
        norm = power_norm(d, p)
        assert lower * norm <= val + 1e-8
        assert val <= upper * norm + 1e-8
    for i in range(50):
        d = rand_dist(rng, 4, lo=0.0)
        a = float(rng.uniform(0.1, 0.9))
        p = float(rng.choice([-0.5, -1.0, -2.0, -4.0]))
        lower, upper = norm_equivalence_bounds(a, p)
        val = evar(d, RiskSpec(a, p)).value
        sup = power_norm(d, math.inf)
        assert lower * sup <= val + 1e-8
        assert val <= upper * sup + 1e-8

    eps = 1e-6
    # lower constant, p > 1: spike of vanishing probability with unit p-norm
    alpha, p = 0.5, 3.0
    lower, upper = norm_equivalence_bounds(alpha, p)
    spike = from_samples([0.0, eps ** (-1.0 / p)], weights=[1.0 - eps, eps])
    ratio = evar(spike, RiskSpec(alpha, p)).value / power_norm(spike, p)
    assert lower <= ratio + 1e-8
    assert ratio <= lower * 1.02
    # upper constant, p > 1: indicator with mass exactly 1 - alpha
    flat = from_samples([0.0, 1.0], weights=[alpha, 1.0 - alpha])
    ratio = evar(flat, RiskSpec(alpha, p)).value / power_norm(flat, p)
    assert ratio >= upper * 0.98
    # lower constant, p < 0: indicator of vanishing probability
    alpha, p = 0.5, -1.0
    lower, _ = norm_equivalence_bounds(alpha, p)
    tiny = from_samples([0.0, 1.0], weights=[1.0 - eps, eps])
    ratio = evar(tiny, RiskSpec(alpha, p)).value / power_norm(tiny, math.inf)
    assert lower <= ratio + 1e-8
    assert ratio <= lower * 1.02
    report(11, "sandwiches hold on 100 instances; witness families reach the constants within 2%")
