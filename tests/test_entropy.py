"""Entropy branches, divergences and their order-monotonicity/convexity."""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyi_risk import (
    Density,
    from_samples,
    renyi_entropy,
)
from oracles import renyi_entropy_decimal

Q_GRID = [-3.0, -1.0, -0.3, 0.0, 0.5, 0.9, 1.0, 1.2, 2.0, 5.0, 20.0, math.inf]


def two_point_density(alpha):
    """Mass alpha at weight 0, mass 1-alpha at weight 1/(1-alpha)."""
    d = from_samples([0.0, 1.0], weights=[alpha, 1.0 - alpha])
    return Density(d, np.array([0.0, 1.0 / (1.0 - alpha)]))


def positive_density(rng, n):
    d = from_samples(np.sort(rng.uniform(-5, 5, n)))
    raw = rng.uniform(0.05, 8.0, n)
    return Density(d, raw / float(np.dot(d.probs, raw)))


class TestDensityInvariants:
    def test_negative_weight_rejected(self):
        d = from_samples([0, 1])
        with pytest.raises(ValueError):
            Density(d, np.array([-0.1, 2.1]))

    def test_wrong_mean_rejected(self):
        d = from_samples([0, 1])
        with pytest.raises(ValueError):
            Density(d, np.array([1.0, 1.5]))

    def test_length_mismatch_rejected(self):
        d = from_samples([0, 1])
        with pytest.raises(ValueError):
            Density(d, np.array([1.0]))

    def test_non_finite_weights_rejected(self):
        d = from_samples([0, 1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="weights must be finite"):
                Density(d, np.array([bad, 1.0]))

    @pytest.mark.parametrize("weights", [[math.nan, -1.0], [-1.0, math.nan],
                                         [math.inf, -math.inf]])
    def test_non_finite_wins_over_negative(self, weights):
        # finiteness is decided first, and (with RuntimeWarning an error here)
        # with no floating-point warning from either infinity
        d = from_samples([0, 1])
        with pytest.raises(ValueError, match="weights must be finite"):
            Density(d, np.array(weights))

    def test_finite_weights_whose_mean_overflows(self):
        # the largest float on n equal atoms: the mean overflows only through
        # the rounding of the probabilities and products, at some n
        big = np.finfo(float).max
        with np.errstate(over="ignore"):
            for n in range(2, 200):
                d = from_samples(np.arange(float(n)))
                if math.isinf(float(np.dot(d.probs, np.full(n, big)))):
                    break
            else:
                raise AssertionError("no mean of equal weights overflowed")
            with pytest.raises(ValueError, match="density mean inf is not 1"):
                Density(d, np.full(n, big))

    def test_negative_zero_weights_accepted(self):
        d = from_samples([0, 1, 2])
        z = Density(d, np.array([-0.0, 1.5, 1.5]))
        assert np.signbit(z.weights[0]) and z.weights[0] == 0.0

    def test_caller_mutation_does_not_reach_the_weights(self):
        d = from_samples([0, 1])
        w = np.array([0.5, 1.5])
        z = Density(d, w)
        w[0] = 7.0
        assert z.weights.tolist() == [0.5, 1.5]
        assert not z.weights.flags.writeable


class TestEntropyBranches:
    def test_constant_density_is_zero_at_every_order(self):
        d = from_samples([1, 2, 3])
        z = Density(d, np.ones(3))
        for q in (0.0, 0.5, 1.0, 2.0, 10.0, math.inf):
            assert renyi_entropy(z, q) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_density_is_order_independent(self):
        z = two_point_density(0.3)
        target = math.log(1.0 / 0.7)
        for q in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert renyi_entropy(z, q) == pytest.approx(target, abs=1e-12)

    def test_direct_evaluation_order_two(self):
        d = from_samples([0, 1])
        z = Density(d, np.array([0.5, 1.5]))
        assert renyi_entropy(z, 2.0) == pytest.approx(math.log(1.25), abs=1e-14)

    def test_negative_order_needs_positive_weights(self):
        z = two_point_density(0.3)
        with pytest.raises(ValueError):
            renyi_entropy(z, -1.0)

    def test_invalid_orders_rejected(self):
        d = from_samples([0, 1])
        z = Density(d, np.ones(2))
        with pytest.raises(ValueError):
            renyi_entropy(z, float("nan"))
        with pytest.raises(ValueError):
            renyi_entropy(z, -math.inf)

    def test_order_zero_counts_exact_zeros(self):
        d = from_samples([0, 1, 2], weights=[0.2, 0.3, 0.5])
        z = Density(d, np.array([0.0, 1.0 / 0.3, 0.0]))
        assert renyi_entropy(z, 0.0) == pytest.approx(-math.log(0.3), abs=1e-14)

    def test_order_zero_of_a_full_support_is_positive_zero(self):
        # -log 1 is -0.0
        z = Density(from_samples([1, 2]), np.ones(2))
        assert math.copysign(1.0, renyi_entropy(z, 0.0)) == 1.0

    @pytest.mark.parametrize("probs, weights", [
        ((0.4, 0.4, 0.2), (0.5, 0.5, 3.0)),
        ((0.5, 0.25, 0.25), (0.5, 0.5, 2.5)),
        ((0.4, 0.4, 0.2), tuple(np.array([0.1, 0.1, 5.5]) / 1.18)),
    ])
    @pytest.mark.parametrize("q", [1e300, -1e300, math.nextafter(1e305, math.inf),
                                   math.nextafter(-1e305, -math.inf), 1e306, -1e306,
                                   1.7e308, -1.7e308])
    def test_orders_near_the_float_range_tend_to_the_extreme_weight(self, probs, weights, q):
        # q log w overflowed at 1.7e308 (nan, "overflow encountered in multiply"),
        # and the terms' spread at +-1.7e308 ("overflow encountered in subtract");
        # past |q| = 1e305 the entropy is the limit itself
        z = Density(from_samples([0.0, 1.0, 2.0], probs), np.array(weights))
        target = float(np.log(z.weights.max() if q > 0.0 else z.weights.min()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = renyi_entropy(z, q)
        if abs(q) > 1e305:
            assert h == target
        else:
            assert h == pytest.approx(target, rel=1e-15, abs=0.0)


def hellinger(z, q):
    """(E Z^q - 1) / (q - 1), the Hellinger divergence, from the entropy."""
    return math.expm1((q - 1.0) * renyi_entropy(z, q)) / (q - 1.0)


class TestDivergences:
    def test_constant_density_divergences_vanish(self):
        d = from_samples([0, 1])
        z = Density(d, np.ones(2))
        assert renyi_entropy(z, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert hellinger(z, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert renyi_entropy(z, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_kl(self):
        z = two_point_density(0.3)
        assert renyi_entropy(z, 1.0) == pytest.approx(math.log(1.0 / 0.7), abs=1e-12)

    def test_hellinger_direct(self):
        d = from_samples([0, 1])
        z = Density(d, np.array([0.5, 1.5]))
        assert hellinger(z, 2.0) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("q", [-3.0, -0.3, 0.0, 0.5, 0.9, 1.2, 2.0, 5.0])
    def test_hellinger_matches_direct_powers(self, q):
        # the entropy is log E Z^q / (q - 1), and the Hellinger divergence
        # (E Z^q - 1) / (q - 1) follows from it; zero weights count only at
        # q >= 0
        for z in (positive_density(np.random.default_rng(7), 6), two_point_density(0.3)):
            w, p = z.weights, z.dist.probs
            if q < 0.0 and not np.all(w > 0.0):
                with pytest.raises(ValueError):
                    renyi_entropy(z, q)
                continue
            pos = w > 0.0
            moment = float(np.dot(p[pos], w[pos] ** q))
            assert renyi_entropy(z, q) == pytest.approx(math.log(moment) / (q - 1.0), rel=1e-12)
            assert hellinger(z, q) == pytest.approx((moment - 1.0) / (q - 1.0), rel=1e-12,
                                                    abs=1e-14)


class TestOrderMonotonicity:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_order(self, seed, n):
        z = positive_density(np.random.default_rng(seed), n)
        vals = [renyi_entropy(z, q) for q in Q_GRID]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-10

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_sign_by_order(self, seed, n):
        z = positive_density(np.random.default_rng(seed), n)
        for q in (0.0, 0.5, 1.0, 3.0, math.inf):
            assert renyi_entropy(z, q) >= -1e-12
        for q in (-3.0, -0.5):
            assert renyi_entropy(z, q) <= 1e-12


class TestOrderConvexity:
    @given(
        st.integers(0, 2 ** 31 - 1),
        st.floats(-2.5, 19.0),
        st.floats(-2.5, 19.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_midpoint_convexity_of_scaled_entropy(self, seed, q0, q1):
        z = positive_density(np.random.default_rng(seed), 6)

        def g(q):
            return (q - 1.0) * renyi_entropy(z, q)

        mid = 0.5 * (q0 + q1)
        assert g(mid) <= 0.5 * g(q0) + 0.5 * g(q1) + 1e-10

    @given(st.integers(0, 2 ** 31 - 1), st.floats(-2.0, 10.0), st.floats(0.1, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_sup_order_chord_bound(self, seed, q, gap):
        z = positive_density(np.random.default_rng(seed), 6)
        q_tilde = q + gap
        lhs = (q_tilde - 1.0) * renyi_entropy(z, q_tilde)
        rhs = (q - 1.0) * renyi_entropy(z, q) + gap * renyi_entropy(z, math.inf)
        assert lhs <= rhs + 1e-10


class TestContinuity:
    def test_continuous_at_order_one(self):
        z = positive_density(np.random.default_rng(5), 6)
        h1 = renyi_entropy(z, 1.0)
        errs = [abs(renyi_entropy(z, 1.0 + h) - h1) + abs(renyi_entropy(z, 1.0 - h) - h1)
                for h in (1e-2, 1e-4)]
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3

    def test_continuous_at_infinity(self):
        z = positive_density(np.random.default_rng(6), 6)
        hinf = renyi_entropy(z, math.inf)
        errs = [abs(renyi_entropy(z, 1.0 / h) - hinf) for h in (1e-2, 1e-4)]
        assert errs[1] < errs[0]
        assert errs[1] < 1e-2

    def test_near_order_one_matches_the_decimal_reference(self):
        # log E Z^q / (q - 1) was off by up to 2.1e-3 relative at q = 1 + 1e-12
        rng = np.random.default_rng(0)
        orders = (1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-8, 1.0 + 1e-8, 1.0001, 1.5)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            d = from_samples(np.arange(n, dtype=float), rng.dirichlet(np.ones(n)))
            w = rng.gamma(0.5, size=n)
            z = Density(d, w / float(np.dot(d.probs, w)))
            for q, ref in zip(orders, renyi_entropy_decimal(d.probs, z.weights, orders)):
                assert abs(Decimal(renyi_entropy(z, q)) - ref) <= Decimal("1e-12") * abs(ref), q
