"""Risk family dispatch, regime solvers, bounds and the order derivative."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyi_risk import (
    DegenerateBranchError,
    Density,
    RiskSpec,
    avar,
    conjugate,
    esssup,
    essinf,
    evar,
    evar_derivative_pprime,
    evar_power,
    expectation,
    from_samples,
    hb_density_for,
    lp_norm,
    norm_equivalence_bounds,
    renyi_entropy,
    risk_level_bound,
    var_level,
)
from oracles import (
    avar_grid_oracle,
    bisect_root,
    chernoff_shannon_oracle,
    conjugate_entropy,
    objective_neg,
    rand_dist,
)

LOG = math.log


def pair(d, weights):
    return float(np.dot(d.probs * d.values, weights))


class TestConjugate:
    def test_fixed_points_and_swaps(self):
        assert conjugate(2.0) == 2.0
        assert conjugate(1.0) == math.inf
        assert conjugate(math.inf) == 1.0
        assert conjugate(-1.0) == 0.5
        assert conjugate(0.5) == -1.0

    def test_involutive(self):
        for p in (1.5, 3.0, -2.0, 0.25, 1.0, math.inf):
            assert conjugate(conjugate(p)) == pytest.approx(p, rel=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            conjugate(0.0)


class TestRiskSpec:
    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0,1\]"):
            RiskSpec(1.5, 2.0)
        with pytest.raises(ValueError):
            RiskSpec(-0.1, 2.0)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            RiskSpec(0.5, 0.0)

    def test_non_real_orders_rejected(self):
        with pytest.raises(ValueError):
            RiskSpec(0.5, float("nan"))
        with pytest.raises(ValueError):
            RiskSpec(0.5, -math.inf)


class TestDispatch:
    def test_level_one_is_esssup(self):
        d = from_samples([0, 5], weights=[0.9, 0.1])
        r = evar(d, RiskSpec(1.0, 2.0))
        assert r.value == 5.0 and r.branch == "esssup_level1"

    def test_orders_inside_unit_interval_collapse(self):
        d = from_samples([0, 1, 7], weights=[0.5, 0.3, 0.2])
        for p in (0.25, 0.5, 0.75):
            for a in (0.0, 0.3, 0.9):
                r = evar(d, RiskSpec(a, p))
                assert r.value == 7.0
                assert r.branch == "esssup_collapse"
                assert r.iterations == 0

    def test_level_zero_is_expectation(self):
        d = from_samples([0, 1, 7], weights=[0.5, 0.3, 0.2])
        for p in (1.0, 2.0, math.inf, -1.0):
            r = evar(d, RiskSpec(0.0, p))
            assert r.value == pytest.approx(expectation(d), abs=1e-14)
            assert r.branch == "expectation"
            assert r.density is not None and np.all(r.density.weights == 1.0)

    def test_order_one_is_avar(self):
        d = from_samples([0, 1])
        r = evar(d, RiskSpec(0.5, 1.0))
        assert r.branch == "avar"
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_variable_across_regimes(self):
        d = from_samples([3.5])
        for a in (0.0, 0.5, 1.0):
            for p in (1.0, 2.0, math.inf, -1.0, 0.5):
                assert evar(d, RiskSpec(a, p)).value == 3.5


class TestAvar:
    def test_level_zero_is_mean(self):
        d = from_samples([0, 1])
        assert avar(d, 0.0).value == pytest.approx(0.5, abs=1e-14)

    def test_two_atom_median_level(self):
        d = from_samples([0, 1])
        r = avar(d, 0.5)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.t_star == 0.0  # left quantile reported even when mass splits

    def test_three_atom_tail_sum_against_grid(self):
        d = from_samples([1, 2, 10], weights=[0.2, 0.3, 0.5])
        closed = avar(d, 0.75).value
        assert closed == pytest.approx(avar_grid_oracle(d, 0.75), abs=1e-6)
        assert closed == pytest.approx(10.0, abs=1e-12)

    def test_density_reproduces_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = rand_dist(rng, 5)
            a = float(rng.uniform(0.0, 0.95))
            r = avar(d, a)
            assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-12)
            assert renyi_entropy(r.density, math.inf) <= LOG(1 / (1 - a)) + 1e-10

    def test_closed_form_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            d = rand_dist(rng, 5)
            a = float(rng.uniform(0.05, 0.9))
            assert avar(d, a).value == pytest.approx(avar_grid_oracle(d, a), abs=1e-6)

    def test_density_exact_at_a_million_atoms(self):
        d = from_samples(np.random.default_rng(0).normal(size=1_000_000))
        r = evar(d, RiskSpec(0.95, 1.0))
        assert abs(float(np.dot(d.probs, r.density.weights)) - 1.0) <= 1e-12
        upper = math.fsum((d.probs * d.values)[d.values > r.t_star].tolist())
        split = (1.0 - 0.95 - math.fsum(d.probs[d.values > r.t_star].tolist())) * r.t_star
        assert r.value == pytest.approx((upper + split) / 0.05, rel=1e-12)

    def test_never_rounds_above_esssup(self):
        # when the quantile atom is the top atom the value is esssup exactly
        d = from_samples(
            [2.8573532231823133, -2.064615707840071, -4.43650560939556,
             -2.629479231257925, 0.4594697713834348, 3.776772577642765],
            [0.22517393403127173, 0.13344033169230696, 0.05086574160632049,
             0.04110246275970173, 0.30098694201885506, 0.24843058789154404])
        assert avar(d, 0.9).value == 3.776772577642765 == esssup(d)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            d = from_samples(rng.uniform(-5, 5, 6), rng.dirichlet(np.ones(6) * 2.0))
            for a in (0.5, 0.7, 0.9):
                assert avar(d, a).value <= esssup(d)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing_in_level_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        d = rand_dist(rng, 5)
        levels = [0.0, 0.2, 0.5, 0.8, 0.95]
        vals = [avar(d, a).value for a in levels]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12
        assert vals[0] == pytest.approx(expectation(d), abs=1e-12)
        for a, v in zip(levels, vals):
            slack = 1e-12 * (1.0 + abs(v))
            assert essinf(d) - slack <= var_level(d, a) <= v + slack <= esssup(d) + 2 * slack


class TestHigherOrder:
    def test_sharp_indicator_value(self):
        d = from_samples([0.0, 1.0], weights=[0.8, 0.2])
        r = evar(d, RiskSpec(0.8, 2.0))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_indicator_density_meets_budget_with_equality(self):
        d = from_samples([0.0, 1.0], weights=[0.8, 0.2])
        r = evar_power(d, 0.8, 2.0)
        assert abs(renyi_entropy(r.density, 2.0) - LOG(1 / 0.2)) <= 1e-8

    def test_interior_strong_duality_and_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            d = rand_dist(rng, 4, max_top=0.45)
            for p in (1.5, 2.0, 3.0):
                r = evar_power(d, 0.5, p)
                pp = conjugate(p)
                assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-8)
                assert renyi_entropy(r.density, pp) <= LOG(2.0) + 1e-8
                assert float(np.dot(d.probs, r.density.weights)) == pytest.approx(1.0, abs=1e-10)

    def test_kink_orders_match_value_from_both_sides(self):
        # p in (1,2) puts kinks at atom values; value must still match a scan
        d = from_samples([0.0, 1.0, 2.0], weights=[0.4, 0.4, 0.2])
        r = evar_power(d, 0.5, 1.3)
        from oracles import grid_min, objective_high
        oracle = grid_min(lambda t: objective_high(d, 0.5, 1.3, t), -3.0, 2.0, 500001)
        assert r.value == pytest.approx(oracle, abs=1e-8)


class TestNegativeOrder:
    def test_degenerate_branch_is_exact(self):
        d = from_samples([0.0, 1.0], weights=[0.3, 0.7])
        r = evar(d, RiskSpec(0.5, -1.0))
        assert r.value == 1.0
        assert r.branch == "degenerate_negative_order"
        assert r.iterations == 0

    def test_interior_stationarity(self):
        d = from_samples([0.0, 1.0], weights=[0.9, 0.1])
        r = evar_power(d, 0.5, -1.0)
        assert r.t_star > 1.0
        assert r.residual <= 1e-9
        ts = np.linspace(1.0 + 1e-6, 8.0, 400001)
        oracle = min(objective_neg(d, 0.5, -1.0, float(t)) for t in ts)
        assert r.value == pytest.approx(oracle, abs=1e-8)

    def test_interior_duality_and_constraint(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            d = rand_dist(rng, 4, max_top=0.45)
            for p in (-1.0, -3.0):
                r = evar_power(d, 0.5, p)
                pp = conjugate(p)
                assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-8)
                ez = float(np.dot(d.probs, r.density.weights ** pp))
                assert ez >= 0.5 ** (1.0 - pp) - 1e-8

    def test_one_kernel_pass_per_derivative(self, monkeypatch):
        # one exp pass per root-finder step, one at each end of the starting
        # bracket (it holds the root here, so it does not grow) and one for
        # the result
        module = importlib.import_module("renyi_risk.evar")
        kernel = module._exp_shifted
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(module, "_exp_shifted", counted)
        d = from_samples([0.0, 1.0], weights=[0.9, 0.1])
        r = evar(d, RiskSpec(0.5, -1.0))
        assert r.branch == "negative_order"
        assert (r.t_star - esssup(d)) / (esssup(d) - essinf(d)) > 1e-8
        assert r.iterations > 0
        assert len(calls) == r.iterations + 3

    def test_power_solver_rejects_orders_outside_its_regimes(self):
        d = from_samples([0.0, 1.0, 2.0])
        for p in (0.5, 1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="order must be"):
                evar_power(d, 0.5, p)


class TestTopAtomPretest:
    def test_orders_agree_on_the_boundary_branch_at_ties(self):
        # two atoms whose top probability lies within 3 ulp of 1 - alpha: every
        # order takes the top-atom exit, or every order solves
        cases = [(0.6048818756895006, 0.3951181243104994),
                 (0.7840857981115471, 0.2159142018884529),
                 (0.1866594306515681, 0.8133405693484319)]
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0.05, 0.95, 60).tolist():
            ulp = math.ulp(1.0 - alpha)
            cases += [(alpha, 1.0 - alpha + k * ulp) for k in range(-3, 4)]
        for alpha, top in cases:
            d = from_samples([0.0, 1.0], weights=[1.0 - top, top])
            results = [evar(d, RiskSpec(alpha, o)) for o in (2.0, -2.0, math.inf)]
            exits = [r.iterations == 0 for r in results]
            assert all(exits) or not any(exits), (alpha, top, exits)
            for r in results:
                assert expectation(d) <= r.value <= esssup(d)
                if exits[0]:
                    assert r.density.weights[0] == 0.0
            if exits[0]:
                with pytest.raises(DegenerateBranchError):
                    hb_density_for(d, RiskSpec(alpha, 2.0))
            else:
                assert hb_density_for(d, RiskSpec(alpha, 2.0))[-1] > 0.0


class TestShannon:
    def test_boundary_equality_activates_esssup(self):
        d = from_samples([0.0, 1.0], weights=[0.3, 0.7])
        r = evar_power(d, 0.3, math.inf)
        assert r.value == 1.0

    def test_chernoff_cross_check(self):
        d = from_samples([0.0, 1.0])
        r = evar_power(d, 0.5, math.inf)
        assert r.value == pytest.approx(chernoff_shannon_oracle(d, 0.5), abs=1e-8)

    def test_chernoff_cross_check_interior(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            d = rand_dist(rng, 5, max_top=0.3)
            r = evar_power(d, 0.6, math.inf)
            assert r.value == pytest.approx(chernoff_shannon_oracle(d, 0.6), abs=1e-8)
            assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-10)
            kl = renyi_entropy(r.density, 1.0)
            assert kl <= LOG(1 / 0.4) + 1e-8

    def test_one_pass_tilt_matches_the_density_form(self):
        # the value and residual come from one exp pass per step; recompute
        # them at the returned tilt from the density exp(theta y - lambda),
        # where the value, (log beta + lambda) / theta at the root, is the
        # tilted mean
        rng = np.random.default_rng(8)
        for n in (200, 2000, 20000):
            # no atom weighs 1 - alpha or more, so every level solves
            d = from_samples(rng.lognormal(0.0, 1.0, n), rng.uniform(0.5, 1.5, n))
            m, s = esssup(d), esssup(d) - essinf(d)
            y = (d.values - m) / s
            for alpha in (0.5, 0.95, 0.99):
                r = evar_power(d, alpha, math.inf)
                theta = r.t_star * s
                a = np.log(d.probs) + theta * y
                lam = float(a.max() + np.log(np.exp(a - a.max()).sum()))
                z = np.exp(theta * y - lam)
                mean = float(np.dot(d.probs * y, z))
                assert r.value == pytest.approx(m + s * mean, rel=1e-12)
                assert np.allclose(r.density.weights, z, rtol=1e-12, atol=0.0)
                assert r.residual == pytest.approx(
                    abs(theta * mean - lam + math.log1p(-alpha)), abs=1e-12)

    def test_one_exp_pass_per_evaluation(self, monkeypatch):
        # Shannon is the |p| = inf case of the one solve in theta: at every
        # order each evaluation of h, and the final one at the root, takes
        # one exp pass
        module = importlib.import_module("renyi_risk.evar")
        shifted, root_finder = module._exp_shifted, module.find_root
        passes, evaluations = [], []

        def counted_pass(terms):
            passes.append(terms.size)
            return shifted(terms)

        def counted_root(g, lo, hi, tol):
            def counted_g(s):
                evaluations.append(s)
                return g(s)
            return root_finder(counted_g, lo, hi, tol)

        monkeypatch.setattr(module, "_exp_shifted", counted_pass)
        monkeypatch.setattr(module, "find_root", counted_root)
        d = from_samples(np.linspace(0.0, 1.0, 50))
        for p in (2.0, 10.0, math.inf, -1.0, -2.0, -0.5, 1e300, -1e300):
            passes.clear()
            evaluations.clear()
            r = evar_power(d, 0.9, p)
            assert r.iterations > 0
            assert len(passes) == len(evaluations) + 1, p
            # p < 0 and +inf keep every atom, p > 1 only those with u > 0
            assert set(passes) == {50} or (p > 1.0 and max(passes) <= 50), p


#: Orders of huge magnitude: the conjugate order rounds to 1 from 1e16 on.
HUGE = (1e6, 1e12, 1e100, 1e300, 1.7e308)


def assert_solution(d, alpha, p, r):
    """A unit-mean density, a value in [mean, esssup], and the entropy budget
    met to 1e-12 relative (an upper bound on the boundary branch)."""
    assert abs(math.fsum((d.probs * r.density.weights).tolist()) - 1.0) <= 1e-12
    assert expectation(d) <= r.value <= esssup(d)
    budget = -math.log1p(-alpha)
    entropy = conjugate_entropy(d, r.density.weights, p)
    if r.iterations:
        assert abs(entropy - budget) <= 1e-12 * budget, (p, entropy, budget)
    else:
        assert entropy <= budget * (1.0 + 1e-12)


def assert_toward_shannon(d, orders, results):
    """Values nonincreasing along ``orders``, which ascend in the conjugate
    order and pass through +inf, so they approach the Shannon value from
    both sides."""
    slack = 1e-15 * (esssup(d) - essinf(d))
    values = [r.value for r in results]
    for (p1, v1), (p2, v2) in zip(zip(orders, values), zip(orders[1:], values[1:])):
        assert v2 <= v1 + slack, (p1, v1, p2, v2)


class TestHugeOrders:
    """One solve in theta serves every order, whatever its magnitude."""

    CASES = {"two_atoms": (([0.0, 1.0], None), 0.3),
             "three_atoms": (([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]), 0.5)}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reproducers_solve_and_approach_shannon(self, case):
        (values, weights), alpha = self.CASES[case]
        d = from_samples(values, weights)
        # ascending conjugate order: -1e6 ... -1.7e308, inf, 1.7e308 ... 1e6
        orders = [-p for p in HUGE] + [math.inf] + list(reversed(HUGE))
        results = [evar(d, RiskSpec(alpha, p)) for p in orders]
        for p, r in zip(orders, results):
            assert r.iterations > 0
            assert_solution(d, alpha, p, r)
        assert_toward_shannon(d, orders, results)

    @pytest.mark.parametrize("p", [-0.5, -1.0, -2.0])
    def test_negative_order_near_ties_meet_the_budget(self, p):
        # the top atom weighs (1 - alpha)(1 - eps): the optimizer t' is of
        # order eps above esssup, which a stop rule on the width in t missed
        for alpha in (0.7, 0.95):
            for k in range(3, 13):
                top = (1.0 - alpha) * (1.0 - 10.0 ** -k)
                d = from_samples([0.0, 0.5, 1.0], [(1.0 - top) / 2.0, (1.0 - top) / 2.0, top])
                r = evar(d, RiskSpec(alpha, p))
                assert r.branch == "negative_order"
                assert_solution(d, alpha, p, r)
                pairing = math.fsum((d.probs * r.density.weights * d.values).tolist())
                assert abs(pairing - r.value) <= 1e-14 * (esssup(d) - essinf(d)), (alpha, k)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(math.log10(2.0), 300.0),
           st.floats(math.log10(2.0), 300.0), st.floats(0.05, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_any_magnitude_meets_the_budget_toward_shannon(self, seed, e1, e2, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = from_samples(rng.uniform(-5.0, 5.0, n), rng.dirichlet(np.full(n, 2.0)))
        small, large = sorted((10.0 ** e1, 10.0 ** e2))
        orders = [-small, -large, math.inf, large, small]
        results = [evar(d, RiskSpec(alpha, p)) for p in orders]
        for p, r in zip(orders, results):
            assert_solution(d, alpha, p, r)
        assert_toward_shannon(d, orders, results)


class TestBisectionParity:
    def test_matches_bisection_in_few_evaluations(self, monkeypatch):
        # the same requests solved through the plain-bisection reference: the
        # same branches and values, in at most 15 evaluations per solve on average
        rng = np.random.default_rng(11)
        samples = []
        for n in (50, 200, 1000):
            samples += [(rng.lognormal(0.0, 1.0, n), None),
                        (np.round(2.0 * rng.normal(0.0, 1.0, n)) / 2.0, None),
                        (rng.standard_t(3.0, n), rng.uniform(0.5, 1.5, n))]
        requests = [(from_samples(y, w), RiskSpec(alpha, order))
                    for y, w in samples for alpha in (0.5, 0.95, 0.99)
                    for order in (2.0, 10.0, math.inf, -2.0)]
        results = [evar(d, spec) for d, spec in requests]
        monkeypatch.setattr(importlib.import_module("renyi_risk.evar"), "find_root", bisect_root)
        reference = [evar(d, spec) for d, spec in requests]
        evaluations = {}
        for (d, spec), r, ref in zip(requests, results, reference):
            assert r.branch == ref.branch
            assert abs(r.value - ref.value) <= 1e-11 * (esssup(d) - essinf(d))
            if ref.iterations:
                evaluations.setdefault(spec.order, []).append(r.iterations)
        assert sorted(evaluations) == [-2.0, 2.0, 10.0, math.inf]
        for order, counts in evaluations.items():
            assert np.mean(counts) <= 15.0, order


class TestCoherence:
    REGIMES = (1.0, 2.0, math.inf, -1.0, 0.5)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_translation_and_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        v = np.sort(rng.uniform(-5, 5, 5))
        pr = rng.dirichlet(np.ones(5) * 2.0)
        d = from_samples(v, pr)
        for p in self.REGIMES:
            spec = RiskSpec(0.5, p)
            base = evar(d, spec).value
            shifted = evar(from_samples(v + 2.5, pr), spec).value
            assert shifted == pytest.approx(base + 2.5, abs=1e-8)
            for lam in (0.5, 2.0):
                scaled = evar(from_samples(lam * v, pr), spec).value
                assert scaled == pytest.approx(lam * base, abs=1e-8)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_and_subadditive_on_comonotone_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pr = rng.dirichlet(np.ones(5) * 2.0)
        v1 = np.sort(rng.uniform(-5, 5, 5))
        v2 = v1 + np.sort(rng.uniform(0.0, 3.0, 5))
        for p in self.REGIMES:
            spec = RiskSpec(0.5, p)
            r1 = evar(from_samples(v1, pr), spec).value
            r2 = evar(from_samples(v2, pr), spec).value
            rsum = evar(from_samples(v1 + v2, pr), spec).value
            assert r1 <= r2 + 1e-10
            assert rsum <= r1 + r2 + 1e-8


class TestUnitSpace:
    """The solvers standardize the atoms, so magnitude and offset never reach them."""

    ORDERS = (1.0, 2.0, 10.0, math.inf, -2.0)
    BASE = np.random.default_rng(0).lognormal(size=1000)

    def test_tiny_magnitudes_stay_in_the_sandwich(self):
        base = from_samples(self.BASE)
        d = from_samples(self.BASE * 1e-150)
        for o in (2.0, 10.0, -2.0):
            r = evar(d, RiskSpec(0.95, o))
            assert expectation(d) <= r.value <= esssup(d)
            assert r.value == pytest.approx(1e-150 * evar(base, RiskSpec(0.95, o)).value,
                                            rel=1e-9)

    def test_large_offsets_stay_in_the_sandwich(self):
        base = from_samples(self.BASE)
        d = from_samples(self.BASE + 1e12)
        for o in (math.inf, -2.0):
            r = evar(d, RiskSpec(0.95, o))
            assert expectation(d) <= r.value <= esssup(d)
            # the offset data are rounded to 1.2e-4, which bounds the value shift
            assert r.value - 1e12 == pytest.approx(evar(base, RiskSpec(0.95, o)).value,
                                                   abs=1e-3)

    def test_direct_callers_scale_too(self):
        d = from_samples(self.BASE[:50])
        tiny = from_samples(self.BASE[:50] * 1e-150)
        assert evar_derivative_pprime(tiny, 0.9, 3.0) == pytest.approx(
            1e-150 * evar_derivative_pprime(d, 0.9, 3.0), rel=1e-8)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(-200, 200))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity_across_scales(self, seed, exponent):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-5, 5, 6)
        pr = rng.dirichlet(np.ones(6) * 2.0)
        lam = 10.0 ** exponent
        base = from_samples(v, pr)
        scaled = from_samples(lam * v, pr)
        for o in self.ORDERS:
            spec = RiskSpec(0.7, o)
            want = lam * evar(base, spec).value
            got = evar(scaled, spec).value
            slack = 1e-12 * lam * (esssup(base) - essinf(base))
            assert got == pytest.approx(want, abs=1e3 * slack)
            assert expectation(scaled) - slack <= got <= esssup(scaled) + slack

    @given(st.integers(0, 2 ** 31 - 1), st.integers(-200, 200), st.integers(-3, 6))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance_across_scales(self, seed, exponent, offset):
        rng = np.random.default_rng(seed)
        lam = 10.0 ** exponent
        y = lam * rng.uniform(-5, 5, 6)
        pr = rng.dirichlet(np.ones(6) * 2.0)
        c = lam * 10.0 ** offset
        base = from_samples(y, pr)
        moved = from_samples(y + c, pr)
        spread = esssup(base) - essinf(base)
        for o in self.ORDERS:
            spec = RiskSpec(0.7, o)
            got = evar(moved, spec).value
            # shifting rounds the atoms by up to half an ulp of the offset
            tol = 1e-9 * spread + 8.0 * math.ulp(abs(c) + spread)
            assert got == pytest.approx(evar(base, spec).value + c, abs=tol)
            assert got <= esssup(moved) + 1e-3 * tol


class TestOrderStructure:
    def test_monotone_chain_in_conjugate_order(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = rand_dist(rng, 5)
            a = 0.5
            pprimes = [10.0, 3.0, 1.5]
            chain = [evar(d, RiskSpec(a, 1.0)).value]
            chain += [evar(d, RiskSpec(a, conjugate(pp))).value for pp in pprimes]
            chain.append(evar(d, RiskSpec(a, math.inf)).value)
            chain.append(evar(d, RiskSpec(a, conjugate(0.5))).value)   # p = -1
            chain.append(evar(d, RiskSpec(a, conjugate(-0.5))).value)  # p in (0,1)
            chain.append(esssup(d))
            for lo, hi in zip(chain, chain[1:]):
                assert hi >= lo - 1e-8

    def test_limit_small_orders_from_above_one(self):
        d = from_samples([0.0, 1.0, 2.0, 3.0, 4.0])
        target = avar(d, 0.5).value
        gaps = [abs(evar(d, RiskSpec(0.5, 1.0 + h)).value - target) for h in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_limit_negative_orders_toward_zero(self):
        d = from_samples([0.0, 1.0, 2.0, 3.0, 4.0])
        target = esssup(d)
        gaps = [abs(evar(d, RiskSpec(0.01, -h)).value - target) for h in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_log_convexity_in_conjugate_order(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = rand_dist(rng, 5, lo=0.1)
            pp0, pp1 = sorted(rng.uniform(1.05, 12.0, 2))
            lam = float(rng.uniform(0.0, 1.0))
            ppl = (1 - lam) * pp0 + lam * pp1
            vals = [evar(d, RiskSpec(0.5, conjugate(pp))).value for pp in (pp0, ppl, pp1)]
            assert LOG(vals[1]) <= (1 - lam) * LOG(vals[0]) + lam * LOG(vals[2]) + 1e-9

    def test_optimizer_nondecreasing_in_conjugate_order(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = rand_dist(rng, 5, lo=0.5, max_top=0.45)
            tstars = [evar_power(d, 0.5, conjugate(pp)).t_star
                      for pp in (1.5, 2.0, 3.0, 6.0, 12.0)]
            for lo, hi in zip(tstars, tstars[1:]):
                assert hi >= lo - 1e-7


class TestNormBounds:
    def test_constants_direct_substitution(self):
        lower, upper = norm_equivalence_bounds(0.75, 2.0)
        assert upper == pytest.approx(2.0, abs=1e-14)
        assert lower == 1.0  # min(1, sqrt(3))
        lower, upper = norm_equivalence_bounds(0.5, -1.0)
        assert (lower, upper) == (pytest.approx(0.5, abs=1e-14), 1.0)

    def test_lower_constant_vanishes_at_level_zero(self):
        lower, upper = norm_equivalence_bounds(1e-12, 2.0)
        assert lower == pytest.approx(0.0, abs=1e-5)
        assert upper == pytest.approx(1.0, abs=1e-10)

    def test_invalid_orders_rejected(self):
        for p in (0.5, 1.0, 0.0):
            with pytest.raises(ValueError):
                norm_equivalence_bounds(0.5, p)

    def test_sandwich_on_random_distributions(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = rand_dist(rng, 5, lo=0.0)
            for a in (0.25, 0.75):
                for p in (1.5, 3.0):
                    lower, upper = norm_equivalence_bounds(a, p)
                    val = evar(d, RiskSpec(a, p)).value
                    norm = lp_norm(d, p)
                    assert lower * norm <= val + 1e-8
                    assert val <= upper * norm + 1e-8
                for p in (-1.0, -2.0):
                    lower, _ = norm_equivalence_bounds(a, p)
                    val = evar(d, RiskSpec(a, p)).value
                    sup = lp_norm(d, math.inf)
                    assert lower * sup <= val + 1e-8
                    assert val <= sup + 1e-8


class TestRiskLevelBound:
    def test_negative_order_substitution(self):
        assert risk_level_bound(0.5, 0.5, -1.0) == pytest.approx(2.0, abs=1e-14)

    def test_equal_levels_bound_at_least_one(self):
        for p in (-1.0, -3.0, 2.0, 5.0):
            assert risk_level_bound(0.7, 0.7, p) >= 1.0

    def test_bound_holds_on_random_nonnegative_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = rand_dist(rng, 4, lo=0.0)
            for p in (2.0, -1.0):
                hi = evar(d, RiskSpec(0.9, p)).value
                lo = evar(d, RiskSpec(0.5, p)).value
                assert hi <= risk_level_bound(0.9, 0.5, p) * lo + 1e-8

    def test_preconditions(self):
        with pytest.raises(ValueError):
            risk_level_bound(0.4, 0.5, 2.0)
        with pytest.raises(ValueError):
            risk_level_bound(0.5, 0.4, 1.0)


class TestDerivative:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            d = rand_dist(rng, 4, lo=0.5, max_top=0.4)
            pp = float(rng.uniform(1.3, 5.0))
            exact = evar_derivative_pprime(d, 0.5, pp)
            h = 1e-4
            fd = (evar(d, RiskSpec(0.5, conjugate(pp + h))).value
                  - evar(d, RiskSpec(0.5, conjugate(pp - h))).value) / (2 * h)
            assert exact == pytest.approx(fd, rel=1e-3)
            assert exact <= 1e-12

    def test_flat_on_boundary_branch(self):
        d = from_samples([1.0, 2.0], weights=[0.5, 0.5])
        exact = evar_derivative_pprime(d, 0.5, 2.0)
        h = 1e-4
        fd = (evar(d, RiskSpec(0.5, conjugate(2.0 + h))).value
              - evar(d, RiskSpec(0.5, conjugate(2.0 - h))).value) / (2 * h)
        assert exact == pytest.approx(0.0, abs=1e-12)
        assert fd == pytest.approx(0.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            evar_derivative_pprime(from_samples([2.0]), 0.5, 2.0)
        with pytest.raises(ValueError):
            evar_derivative_pprime(from_samples([0.0, 1.0]), 0.5, 2.0)
        with pytest.raises(ValueError):
            evar_derivative_pprime(from_samples([1.0, 2.0]), 0.5, 1.0)


class TestResultInvariants:
    def test_density_pairing_matches_value(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = rand_dist(rng, 5)
            a = float(rng.uniform(0.05, 0.95))
            for p in (1.0, 1.7, 2.0, math.inf, -1.5):
                r = evar(d, RiskSpec(a, p))
                if r.density is not None:
                    assert abs(pair(d, r.density.weights) - r.value) <= 1e-6 * (1 + abs(r.value))
