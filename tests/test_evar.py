"""Risk family dispatch, regime solvers, bounds and the order derivative."""

import importlib
import math
import sys
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyi_risk import (
    Density,
    RiskSpec,
    conjugate,
    dual_norm,
    dual_norm_raw,
    esssup,
    essinf,
    evar,
    evar_derivative_pprime,
    expectation,
    from_samples,
    hb_density_for,
    hb_witness_for,
    norm_equivalence_bounds,
    renyi_entropy,
    risk_level_bound,
    sup_oracle,
)
from renyi_risk.evar import _avar
from oracles import (
    PREC,
    avar_exact,
    avar_grid_oracle,
    bisect_root,
    conjugate_entropy,
    evar_decimal,
    log_norm_constants_decimal,
    objective_neg,
    power_norm,
    rand_dist,
)

LOG = math.log


def pair(d, weights):
    return float(np.dot(d.probs * d.values, weights))


def exp_passes(monkeypatch):
    """The sizes of the exp passes over the atoms that ``evar`` makes from
    here on: one for each evaluation of h, and one for the attaining density."""
    sizes = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(a, *args, **kwargs):
            sizes.append(a.size)
            return np.exp(a, *args, **kwargs)

    monkeypatch.setattr(importlib.import_module("renyi_risk.evar"), "np", Numpy())
    return sizes


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

    def test_non_real_orders_rejected(self):
        for p in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="invalid order"):
                conjugate(p)


class TestRiskSpec:
    def test_alpha_range_enforced(self):
        for alpha in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0,1\]"):
                RiskSpec(alpha, 2.0)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            RiskSpec(0.5, 0.0)

    def test_non_real_orders_rejected(self):
        with pytest.raises(ValueError):
            RiskSpec(0.5, float("nan"))
        with pytest.raises(ValueError):
            RiskSpec(0.5, -math.inf)

    @pytest.mark.parametrize("alpha, order, pprime", [
        (0.0, 2.0, None), (1.0, -2.0, None), (0.5, 0.5, None), (0.5, 1.0, None),
        (1e-300, 1.5, 3.0), (0.5, 2.0, 2.0), (0.95, -1.0, 0.5), (0.99, math.inf, 1.0),
        (1.0 - 2.0 ** -53, 1e300, 1.0), (0.3, -1e300, 1.0),
    ])
    def test_budget_is_the_one_domain(self, alpha, order, pprime):
        # (log beta, p') where 0 < alpha < 1 and the order is above 1, below 0
        # or +inf; outside it every budget reader raises the same error
        spec = RiskSpec(alpha, order)
        if pprime is not None:
            assert spec.budget() == (-math.log1p(-alpha), pprime)
            return
        d = from_samples([-1.0, 0.5, 2.0])
        z = Density(d, np.ones(3))
        for call in (spec.budget, lambda: sup_oracle(d, spec, 10),
                     lambda: dual_norm(z, alpha, order),
                     lambda: dual_norm_raw(d, np.ones(3), alpha, order),
                     lambda: hb_density_for(d, spec), lambda: hb_witness_for(z, alpha, order)):
            with pytest.raises(ValueError, match="no entropy budget"):
                call()


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
        assert evar(d, RiskSpec(0.0, 1.0)).value == pytest.approx(0.5, abs=1e-14)

    def test_two_atom_median_level(self):
        d = from_samples([0, 1])
        r = evar(d, RiskSpec(0.5, 1.0))
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.t_star == 0.0  # left quantile reported even when mass splits

    def test_three_atom_tail_sum_against_grid(self):
        d = from_samples([1, 2, 10], weights=[0.2, 0.3, 0.5])
        closed = evar(d, RiskSpec(0.75, 1.0)).value
        assert closed == pytest.approx(avar_grid_oracle(d, 0.75), abs=1e-6)
        assert closed == pytest.approx(10.0, abs=1e-12)

    def test_density_reproduces_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = rand_dist(rng, 5)
            a = float(rng.uniform(0.0, 0.95))
            r = evar(d, RiskSpec(a, 1.0))
            assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-12)
            assert renyi_entropy(r.density, math.inf) <= LOG(1 / (1 - a)) + 1e-10

    def test_closed_form_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            d = rand_dist(rng, 5)
            a = float(rng.uniform(0.05, 0.9))
            assert evar(d, RiskSpec(a, 1.0)).value == pytest.approx(avar_grid_oracle(d, a), abs=1e-6)

    def test_density_exact_at_a_million_atoms(self):
        d = from_samples(np.random.default_rng(0).normal(size=1_000_000))
        for a in (0.5, 0.95):  # tails summed in plain doubles miss 1 by 1.3e-11 at 0.5
            r = evar(d, RiskSpec(a, 1.0))
            assert abs(float(np.dot(d.probs, r.density.weights)) - 1.0) <= 1e-12
            upper = math.fsum((d.probs * d.values)[d.values > r.t_star].tolist())
            split = (1.0 - a - math.fsum(d.probs[d.values > r.t_star].tolist())) * r.t_star
            assert r.value == pytest.approx((upper + split) / (1.0 - a), rel=1e-12)

    def test_levels_at_rounded_cdf_points(self):
        # the quantile atom and its split read the same tail sums, so where a
        # forward cdf and the tail above disagree in the last bits the density
        # still has unit mean and the value is the exact tail mean
        d = from_samples(np.arange(10_000.0))
        r = evar(d, RiskSpec(0.9990999999999064, 1.0))  # raised "density mean ... is not 1"
        assert abs(float(np.dot(d.probs, r.density.weights)) - 1.0) <= 1e-12
        assert r.value == pytest.approx(avar_exact(d, 0.9990999999999064), abs=1e-15 * 9999.0)
        rng = np.random.default_rng(11)
        for n, weights in ((10, None), (1000, None), (1000, rng.dirichlet(np.ones(1000))),
                           (2000, rng.random(2000) ** 8)):
            d = from_samples(rng.normal(size=n), weights)
            spread = esssup(d) - essinf(d)
            for c in np.cumsum(d.probs)[rng.choice(n - 1, size=min(n - 1, 25), replace=False)]:
                for a in (float(np.nextafter(c, 0.0)), float(c), float(np.nextafter(c, 1.0))):
                    r = evar(d, RiskSpec(a, 1.0))
                    assert abs(float(np.dot(d.probs, r.density.weights)) - 1.0) <= 1e-12
                    assert abs(r.value - avar_exact(d, a)) <= 1e-15 * spread

    def test_never_rounds_above_esssup(self):
        # when the quantile atom is the top atom the value is esssup exactly
        d = from_samples(
            [2.8573532231823133, -2.064615707840071, -4.43650560939556,
             -2.629479231257925, 0.4594697713834348, 3.776772577642765],
            [0.22517393403127173, 0.13344033169230696, 0.05086574160632049,
             0.04110246275970173, 0.30098694201885506, 0.24843058789154404])
        assert evar(d, RiskSpec(0.9, 1.0)).value == 3.776772577642765 == esssup(d)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            d = from_samples(rng.uniform(-5, 5, 6), rng.dirichlet(np.ones(6) * 2.0))
            for a in (0.5, 0.7, 0.9):
                assert evar(d, RiskSpec(a, 1.0)).value <= esssup(d)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing_in_level_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        d = rand_dist(rng, 5)
        levels = [0.0, 0.2, 0.5, 0.8, 0.95]
        vals = [evar(d, RiskSpec(a, 1.0)).value for a in levels]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12
        assert vals[0] == pytest.approx(expectation(d), abs=1e-12)
        for a, v in zip(levels, vals):
            slack = 1e-12 * (1.0 + abs(v))
            assert essinf(d) - slack <= _avar(d, a).t_star <= v + slack <= esssup(d) + 2 * slack


class TestHigherOrder:
    def test_sharp_indicator_value(self):
        d = from_samples([0.0, 1.0], weights=[0.8, 0.2])
        r = evar(d, RiskSpec(0.8, 2.0))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_indicator_density_meets_budget_with_equality(self):
        d = from_samples([0.0, 1.0], weights=[0.8, 0.2])
        r = evar(d, RiskSpec(0.8, 2.0))
        assert abs(renyi_entropy(r.density, 2.0) - LOG(1 / 0.2)) <= 1e-8

    def test_interior_strong_duality_and_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            d = rand_dist(rng, 4, max_top=0.45)
            for p in (1.5, 2.0, 3.0):
                r = evar(d, RiskSpec(0.5, p))
                pp = conjugate(p)
                assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-8)
                assert renyi_entropy(r.density, pp) <= LOG(2.0) + 1e-8
                assert float(np.dot(d.probs, r.density.weights)) == pytest.approx(1.0, abs=1e-10)

    def test_kink_orders_match_value_from_both_sides(self):
        # p in (1,2) puts kinks at atom values; value must still match a scan
        d = from_samples([0.0, 1.0, 2.0], weights=[0.4, 0.4, 0.2])
        r = evar(d, RiskSpec(0.5, 1.3))
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
        r = evar(d, RiskSpec(0.5, -1.0))
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
                r = evar(d, RiskSpec(0.5, p))
                pp = conjugate(p)
                assert pair(d, r.density.weights) == pytest.approx(r.value, abs=1e-8)
                ez = float(np.dot(d.probs, r.density.weights ** pp))
                assert ez >= 0.5 ** (1.0 - pp) - 1e-8

    def test_one_kernel_pass_per_derivative(self, monkeypatch):
        # one exp pass per evaluation of h and its slope, growth included,
        # and RiskResult.iterations counts every one of them; the density
        # takes one more
        calls = exp_passes(monkeypatch)
        d = from_samples([0.0, 1.0], weights=[0.9, 0.1])
        r = evar(d, RiskSpec(0.5, -1.0))
        assert r.branch == "negative_order"
        assert (r.t_star - esssup(d)) / (esssup(d) - essinf(d)) > 1e-8
        assert r.iterations > 0
        assert len(calls) == r.iterations + 1

    @pytest.mark.parametrize("alpha, residual", [(0.3, 0.06711699831313034),
                                                 (0.49, 0.38378660763816363)])
    def test_tiny_order_stops_at_the_clamp_without_steps(self, alpha, residual):
        # the root of h lies past theta = e^700: the solve used to spend
        # 45 and 55 steps closing on the clamp, with these results.  Its
        # only passes are the growth's doublings from [1, 3], s = 1, 3, 5,
        # 9, ..., 1025, where h is still positive past the clamp
        r = evar(from_samples([0.0, 1.0]), RiskSpec(alpha, -1e-3))
        assert r.iterations == 11
        assert r.value == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(r.density.weights, [9.792340943536091e-305, 2.0], rtol=1e-12, atol=0.0)
        assert r.residual == pytest.approx(residual, rel=1e-12)

    def test_roots_between_the_last_doubling_and_the_clamp(self, monkeypatch):
        # bracket growth from [1, 3] passes s = 513 and then the clamp s_max,
        # so these roots lie in a bracket whose upper part is clamped.  h is
        # taken at min(s, s_max) and is continuous there; when it jumped to its
        # limit past s_max, the same 48 solves took 456 steps after growth.
        # Every kernel pass counted, growth and the final pass included, they
        # take 743 with Newton steps (947 with the interpolating steps before
        # them); the bound leaves 5%
        module = importlib.import_module("renyi_risk.evar")
        find_root, roots = module.find_root, []

        def recorded(*args):
            root = find_root(*args)
            roots.append(root[0])
            return root

        monkeypatch.setattr(module, "find_root", recorded)
        window, passes = 0, 0
        for atoms in ([0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 4.0]):
            d = from_samples(atoms)
            for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
                for p in (-np.logspace(-3, -1, 81)).tolist():
                    roots.clear()
                    r = evar(d, RiskSpec(alpha, p))
                    s_max = 700.0 + math.log(-p)
                    if not (roots and 513.0 < roots[0] <= s_max):
                        continue
                    window += 1
                    passes += r.iterations
                    # the value's offset below esssup, of order |p|/theta, rounds away
                    assert r.value == esssup(d)
                    assert r.iterations > 0
                    assert r.residual <= 1e-14
                    assert abs(math.fsum((d.probs * r.density.weights).tolist()) - 1.0) <= 1e-15
        assert window == 48
        assert passes <= 780

    @pytest.mark.parametrize("p", [-0.1, -0.5, -1.0, -2.0])
    def test_light_top_atom_keeps_a_unit_mean(self, p):
        # E_w[theta y / (p u)] nears 1 here, and log1p of its negative lost
        # the normalizer: "density mean ... is not 1" at -0.5 and -0.1
        d = from_samples([0.0, 1.0, 2.0], [0.5, 0.5, 1e-12])
        r = evar(d, RiskSpec(0.5, p))
        assert r.branch == "negative_order"
        assert_solution(d, 0.5, p, r)
        assert abs(r.value - float(evar_decimal(d, 0.5, p).value)) <= 2e-15 * 2.0

    def test_light_top_atoms_across_random_samples(self):
        # three of these samples raised "density mean ... is not 1"
        rng = np.random.default_rng(0)
        for _ in range(90):
            n = int(rng.integers(3, 200))
            d = from_samples(rng.lognormal(size=n), rng.dirichlet(np.full(n, 0.3)))
            for alpha in (0.5, 0.95):
                for p in (-0.1, -0.5, -1.0, -2.0):
                    assert_solution(d, alpha, p, evar(d, RiskSpec(alpha, p)))

    def test_power_solver_rejects_orders_outside_its_regimes(self):
        # the solve reads its budget from the spec, so orders in (0, 1] reach
        # it only by a direct call, and RiskSpec rejects -inf and nan itself
        solve = importlib.import_module("renyi_risk.evar")._evar_power
        d = from_samples([0.0, 1.0, 2.0])
        for p in (0.5, 1.0):
            with pytest.raises(ValueError, match="no entropy budget"):
                solve(d, RiskSpec(0.5, p))
        for p in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="order must be"):
                RiskSpec(0.5, p)

    def test_power_solver_rejects_levels_without_a_budget(self):
        solve = importlib.import_module("renyi_risk.evar")._evar_power
        d = from_samples([0.0, 1.0, 2.0])
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="no entropy budget"):
                solve(d, RiskSpec(alpha, 2.0))
        with pytest.raises(ValueError, match=r"alpha must lie in \[0,1\]"):
            RiskSpec(math.nan, 2.0)


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
            z = hb_density_for(d, RiskSpec(alpha, 2.0))
            if exits[0]:
                assert z.tolist() == [0.0, 1.0 / float(d.probs[-1])]
            else:
                assert z[-1] > 0.0


class TestKernelShift:
    """The kernel shifts every term by the top atom's log P, floored at -700."""

    @pytest.mark.parametrize("atoms", [[0.0, 1.0], [0.0, 1.0, 2.0]])
    def test_top_atom_below_the_floor(self, atoms):
        # the top atom's log P is below -704, so the shift is the floor and
        # the other atoms' shifted terms are near 700: no term overflows
        d = from_samples(atoms, weights=[1.0] * (len(atoms) - 1) + [1e-306])
        spread = esssup(d) - essinf(d)
        for alpha in (0.5, 0.9):
            for p in (2.0, 10.0, math.inf, -2.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    r = evar(d, RiskSpec(alpha, p))
                assert r.iterations > 0, (alpha, p)
                assert expectation(d) - 1e-14 * spread <= r.value <= esssup(d), (alpha, p)

    @pytest.mark.parametrize("alpha", [1e-13, 1e-14, 1e-15])
    def test_small_levels_keep_the_sandwich(self, alpha):
        # log beta is near alpha here, a few hundred ulps of L at most; the
        # sandwich breaks further down (ROADMAP, Open findings)
        samples = [from_samples(np.random.default_rng(0).lognormal(size=50)),
                   from_samples([0.0, 1.0, 4.0], weights=[0.5, 0.3, 0.2]),
                   from_samples([0.0, 1.0])]
        for d in samples:
            for p in (2.0, 10.0, math.inf, -2.0):
                value = evar(d, RiskSpec(alpha, p)).value
                assert expectation(d) <= value <= esssup(d), (d.n_atoms, p)


class TestShannon:
    def test_boundary_equality_activates_esssup(self):
        d = from_samples([0.0, 1.0], weights=[0.3, 0.7])
        r = evar(d, RiskSpec(0.3, math.inf))
        assert r.value == 1.0

    def test_chernoff_cross_check(self):
        d = from_samples([0.0, 1.0])
        r = evar(d, RiskSpec(0.5, math.inf))
        assert abs(r.value - float(evar_decimal(d, 0.5, math.inf).value)) <= 1e-15

    def test_chernoff_cross_check_interior(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            d = rand_dist(rng, 5, max_top=0.3)
            r = evar(d, RiskSpec(0.6, math.inf))
            spread = esssup(d) - essinf(d)
            assert abs(r.value - float(evar_decimal(d, 0.6, math.inf).value)) <= 1e-15 * spread
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
                r = evar(d, RiskSpec(alpha, math.inf))
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
        # order each evaluation of h takes one exp pass, and so does the
        # final one, which runs only where the root returned is not the
        # last point evaluated; RiskResult.iterations counts them all, and
        # the density takes one more pass
        module = importlib.import_module("renyi_risk.evar")
        root_finder, evaluations = module.find_root, []

        def counted_root(g, lo, hi, tol):
            def counted_g(s):
                evaluations.append(s)
                return g(s)
            return root_finder(counted_g, lo, hi, tol)

        passes = exp_passes(monkeypatch)
        monkeypatch.setattr(module, "find_root", counted_root)
        d = from_samples(np.linspace(0.0, 1.0, 50))
        for p in (2.0, 10.0, math.inf, -1.0, -2.0, -0.5, 1e300, -1e300):
            passes.clear()
            evaluations.clear()
            r = evar(d, RiskSpec(0.9, p))
            assert r.iterations > 0
            assert len(passes) == r.iterations + 1, p
            assert len(evaluations) + 1 <= len(passes) <= len(evaluations) + 2, p
            # p < 0 and +inf keep every atom, p > 1 only those with u > 0
            assert set(passes) == {50} or (p > 1.0 and max(passes) <= 50), p


#: Every regime of the reference: p > 1 from 1.5 to 1e6, +inf, p < 0 from -1e6 to -0.01.
REFERENCE_ORDERS = (1.5, 2.0, 10.0, 1e6, math.inf, -1e6, -2.0, -0.01)


def reference_cases():
    """200 seeded (distribution, level, order) cases: 2-50 lognormal atoms
    with Dirichlet weights, levels 0.5, 0.95 and 0.99 and every order of
    ``REFERENCE_ORDERS``, leaving out top atoms within 4 ulps of the
    boundary beta P(top) = 1."""
    rng = np.random.default_rng(7)
    cases = []
    while len(cases) < 200:
        n = int(rng.integers(2, 51))
        d = from_samples(rng.lognormal(size=n), rng.dirichlet(np.ones(n)))
        alpha, p = (0.5, 0.95, 0.99)[len(cases) % 3], REFERENCE_ORDERS[len(cases) % 8]
        if abs(float(d.probs[-1]) - (1.0 - alpha)) > 4 * math.ulp(1.0 - alpha):
            cases.append((d, alpha, p))
    return cases


def assert_certified(d, alpha, ref):
    """The reference's own 60-digit certificate: a primal-dual gap within
    1e-40 of the spread and a density within 1e-40 of the budget relative to
    log beta (below it on the boundary branch, where the gap is 0)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        log_beta = -(1 - Decimal(alpha)).ln()
        bound = Decimal(10) ** -40
        assert abs(ref.gap) <= bound * Decimal(esssup(d) - essinf(d))
        if ref.evaluations:
            assert abs(ref.entropy - log_beta) <= bound * log_beta
        else:
            assert ref.value == Decimal(esssup(d)) and ref.entropy <= log_beta


class TestDecimalReference:
    """``evar`` against ``oracles.evar_decimal``, which reads only the atoms
    and probabilities and holds the optimizer at 60 digits as a distance
    from an atom, and that reference's own certificate."""

    def test_agrees_on_seeded_cases(self):
        evaluations = []
        for d, alpha, p in reference_cases():
            r, ref = evar(d, RiskSpec(alpha, p)), evar_decimal(d, alpha, p)
            assert (r.iterations == 0) == (ref.evaluations == 0), (d.n_atoms, alpha, p)
            assert abs(r.value - float(ref.value)) <= 1e-15 * (esssup(d) - essinf(d)), (
                d.n_atoms, alpha, p)
            assert_certified(d, alpha, ref)
            if ref.evaluations:
                evaluations.append(ref.evaluations)
        # a start from a float solve leaves a few 60-digit evaluations per case
        assert np.mean(evaluations) <= 15

    @pytest.mark.parametrize("p", [1.0001, 1.01, 1.1])
    def test_certifies_itself_near_order_one(self, p):
        # the two reproducers where the solve in theta misses the budget
        lognormal = from_samples(np.random.default_rng(0).lognormal(size=50))
        for d, alpha in ((from_samples([0.0, 1.0, 4.0], [0.5, 0.3, 0.2]), 0.5), (lognormal, 0.95)):
            assert_certified(d, alpha, evar_decimal(d, alpha, p))

    def test_optimizer_below_the_lowest_atom(self):
        # t* lies below atom 0 by 10^-1.60, 9.2e-17, 1.5e-263 and 10^-3630.6:
        # a double near the atom cannot hold it
        d = from_samples([0.0, 1.0, 4.0], [0.5, 0.3, 0.2])
        for p, offset in ((1.5, "0.0250438505709"), (1.1, "9.18329661552e-17"),
                          (1.01, "1.52014433143e-263"), (1.001, "2.37267486323e-3631")):
            ref = evar_decimal(d, 0.5, p)
            assert ref.atom == 0
            assert abs(ref.offset / Decimal(offset) - 1) <= Decimal("1e-6"), p
            assert_certified(d, 0.5, ref)


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


def seed11_requests():
    """The request grid of ``TestBisectionParity``: 9 samples of 50-1000
    atoms, 3 levels and 4 orders."""
    rng = np.random.default_rng(11)
    samples = []
    for n in (50, 200, 1000):
        samples += [(rng.lognormal(0.0, 1.0, n), None),
                    (np.round(2.0 * rng.normal(0.0, 1.0, n)) / 2.0, None),
                    (rng.standard_t(3.0, n), rng.uniform(0.5, 1.5, n))]
    return [(from_samples(y, w), RiskSpec(alpha, order))
            for y, w in samples for alpha in (0.5, 0.95, 0.99)
            for order in (2.0, 10.0, math.inf, -2.0)]


class TestBisectionParity:
    def test_matches_bisection_in_few_evaluations(self, monkeypatch):
        # the same requests solved through the plain-bisection reference: the
        # same branches and values, in at most 15 evaluations per solve on average
        requests = seed11_requests()
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

    def test_exp_passes_per_solve(self, monkeypatch):
        # every evaluation of h is one exp pass, growth and the density's
        # moments included; re-evaluating the unmoved end, and starting the
        # steps from the whole grown bracket, took 14.13, 12.52, 12.09 and
        # 11.78 passes on average, and the interpolating steps 12.61, 12.09,
        # 12.04 and 11.39.  Newton steps take 8.30, 7.57, 7.48 and 7.48; the
        # bounds leave 5%.  The attaining density's own exp pass is not counted
        passes, per_solve = exp_passes(monkeypatch), {}
        for d, spec in seed11_requests():
            passes.clear()
            if evar(d, spec).iterations:
                per_solve.setdefault(spec.order, []).append(len(passes) - 1)
        bounds = {2.0: 8.72, 10.0: 7.94, math.inf: 7.85, -2.0: 7.85}
        assert sorted(per_solve) == sorted(bounds)
        for order, counts in per_solve.items():
            assert np.mean(counts) <= bounds[order], order

    def test_kernel_passes_on_a_seeded_replay(self):
        # 30 samples shaped like the benchmark's grid_small (lognormal,
        # half-unit rounded normal and weighted t(3); 50, 200 and 1000
        # atoms) from one generator, at its levels and solved orders: the
        # 312 that solve take 7.74 kernel passes on average and 38 at most,
        # a near-tie at order 2, every pass counted (12.46 and 58 with the
        # interpolating steps).  The bounds leave 5% and one pass
        rng = np.random.default_rng([5, 2, 1])
        iterations = []
        for k in range(30):
            kind, n = k % 3, (50, 200, 1000)[k // 3 % 3]
            if kind == 0:
                d = from_samples(rng.lognormal(0.0, 1.0, n))
            elif kind == 1:
                d = from_samples(np.round(2.0 * rng.normal(0.0, 1.0, n)) / 2.0)
            else:
                d = from_samples(rng.standard_t(3.0, n), rng.uniform(0.5, 1.5, n))
            for alpha in (0.5, 0.95, 0.99):
                for order in (2.0, 10.0, math.inf, -2.0):
                    r = evar(d, RiskSpec(alpha, order))
                    if r.iterations:
                        iterations.append(r.iterations)
                        assert r.residual <= 1e-14, (k, alpha, order)
        assert len(iterations) == 312
        assert np.mean(iterations) <= 8.13
        assert max(iterations) <= 39


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
        target = evar(d, RiskSpec(0.5, 1.0)).value
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
        # t* is nondecreasing in p' on both sides of the Shannon order, to
        # 1e-12 of the spread: p' from 1.5 to 12 (p > 1) and from 0.2 to 0.9
        # (p < 0), on 3-300 atoms at levels 0.5, 0.95 and 0.99
        rng = np.random.default_rng(9)
        dists = [rand_dist(rng, 5, lo=0.5, max_top=0.45) for _ in range(5)]
        for n in (3, 10, 30, 100, 300):
            dists += [from_samples(rng.lognormal(size=n)),
                      from_samples(rng.standard_t(3.0, n), rng.uniform(0.5, 1.5, n)),
                      from_samples(np.round(2.0 * rng.normal(size=n)) / 2.0)]
        for d in dists:
            slack = 1e-12 * (esssup(d) - essinf(d))
            for alpha in (0.5, 0.95, 0.99):
                for pprimes in ((1.5, 2.0, 3.0, 6.0, 12.0), (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)):
                    tstars = [evar(d, RiskSpec(alpha, conjugate(pp))).t_star for pp in pprimes]
                    for lo, hi in zip(tstars, tstars[1:]):
                        assert hi >= lo - slack, (d.n_atoms, alpha, pprimes)


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
        for p in (0.5, 1.0, 0.0, math.inf):
            with pytest.raises(ValueError):
                norm_equivalence_bounds(0.5, p)
        # the domain is RiskSpec's and its budget's
        for alpha, message in ((0.0, "no entropy budget"), (1.0, "no entropy budget"),
                               (math.nan, r"alpha must lie in \[0,1\]")):
            with pytest.raises(ValueError, match=message):
                norm_equivalence_bounds(alpha, 2.0)

    def test_sandwich_on_random_distributions(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = rand_dist(rng, 5, lo=0.0)
            for a in (0.25, 0.75):
                for p in (1.001, 1.5, 3.0):
                    lower, upper = norm_equivalence_bounds(a, p)
                    val = evar(d, RiskSpec(a, p)).value
                    norm = power_norm(d, p)
                    assert lower * norm <= val + 1e-8
                    assert val <= upper * norm + 1e-8
                for p in (-1.0, -2.0):
                    lower, _ = norm_equivalence_bounds(a, p)
                    val = evar(d, RiskSpec(a, p)).value
                    sup = power_norm(d, math.inf)
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
            for p in (1.001, 2.0, 1e3, -1.0):
                hi = evar(d, RiskSpec(0.9, p)).value
                lo = evar(d, RiskSpec(0.5, p)).value
                assert hi <= risk_level_bound(0.9, 0.5, p) * lo + 1e-8

    def test_grid_against_a_decimal_reference(self):
        # both functions on 8 levels x 20 orders x alpha' in {alpha, alpha/2,
        # 1e-12}.  The direct powers raised on 141 of these cases
        # (OverflowError from beta^(1/(p-1)) next to order 1, ZeroDivisionError
        # where the level bound's difference of powers underflowed) and were
        # up to 12.7% off at alpha 1e-12, p 1000
        alphas = (1e-12, 1e-6, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-9)
        orders = (1.0 + 1e-9, 1.0001, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 1e3, 1e6, 1e300,
                  1.7e308, -1e-300, -1e-3, -0.5, -2.0, -10.0, -1e6, -1.7e308)
        cases = sorted({(a, ap, p) for a in alphas for ap in (a, a / 2.0, 1e-12) for p in orders})
        assert len(cases) == 460
        top, spacing = Decimal(sys.float_info.max), Decimal(2.0 ** -1074)
        with warnings.catch_warnings(), localcontext() as ctx:
            warnings.simplefilter("error")
            ctx.prec, ctx.Emax, ctx.Emin = PREC, MAX_EMAX, MIN_EMIN
            for a, ap, p in cases:
                lower, upper = norm_equivalence_bounds(a, p)
                bound = risk_level_bound(a, ap, p)
                log_lower, log_upper = log_norm_constants_decimal(a, p)
                log_bound = log_upper - log_norm_constants_decimal(ap, p)[0]
                for got, ref in ((lower, min(Decimal(1), log_lower.exp())),
                                 (upper, log_upper.exp()), (bound, log_bound.exp())):
                    if ref > top:  # +inf only past the float range
                        assert got == math.inf, (a, ap, p)
                    else:  # a subnormal result is as close as its spacing allows
                        assert abs(Decimal(got) - ref) <= Decimal(1e-13) * ref + spacing, \
                            (a, ap, p)
                # the level bound is the ratio of the two norm constants
                ap_lower = norm_equivalence_bounds(ap, p)[0]
                ratio = upper / ap_lower if ap_lower > 0.0 else math.inf
                if ap_lower < 1.0 and math.isfinite(ratio):
                    assert bound == pytest.approx(ratio, rel=1e-14, abs=0.0), (a, ap, p)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            risk_level_bound(0.4, 0.5, 2.0)
        with pytest.raises(ValueError):
            risk_level_bound(0.5, 0.4, 1.0)
        for levels in ((math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0,1\]"):
                risk_level_bound(*levels, 2.0)


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

    def test_matches_a_decimal_central_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            d = rand_dist(rng, 4, lo=0.5, max_top=0.4)
            pp = float(rng.uniform(1.3, 5.0))
            with localcontext() as ctx:
                ctx.prec = PREC
                h = Decimal(10) ** -15

                def value(q):
                    return evar_decimal(d, 0.5, q / (q - 1)).value

                slope = (value(Decimal(pp) + h) - value(Decimal(pp) - h)) / (2 * h)
            exact = evar_derivative_pprime(d, 0.5, pp)
            assert abs(exact - float(slope)) <= 1e-12 * abs(float(slope)), pp

    def test_finite_without_warnings_at_huge_conjugate_orders(self):
        # beta^(p' - 1) overflowed past p' = 237.93 at alpha 0.95
        d = from_samples(np.random.default_rng(0).lognormal(size=50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pp in (238.0, 1e3, 1e6):
                assert math.isfinite(evar_derivative_pprime(d, 0.95, pp))

    def test_preconditions(self):
        # a constant variable takes the boundary branch, where the value is
        # the atom at every order
        assert evar_derivative_pprime(from_samples([2.0]), 0.5, 2.0) == 0.0
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
