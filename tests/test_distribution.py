"""Construction, the lower quantile, and the L^p norm reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyi_risk import (
    DiscreteDistribution,
    RiskSpec,
    essinf,
    esssup,
    evar,
    expectation,
    from_samples,
)
from renyi_risk.evar import _avar
from oracles import power_norm


class TestFromSamples:
    def test_merges_duplicates_with_uniform_weighting(self):
        d = from_samples([1, 1, 2])
        assert d.values.tolist() == [1.0, 2.0]
        assert d.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_singleton(self):
        d = from_samples([5])
        assert d.values.tolist() == [5.0]
        assert d.probs.tolist() == [1.0]

    def test_weight_normalization(self):
        d = from_samples([0, 1], weights=[3, 1])
        assert d.probs == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="need at least one atom"):
            from_samples([])
        with pytest.raises(ValueError, match="need at least one atom"):
            DiscreteDistribution(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values and probs must have equal length"):
            from_samples([1.0, 2.0], weights=[1.0])
        with pytest.raises(ValueError, match="values and probs must have equal length"):
            DiscreteDistribution(np.array([1.0, 2.0]), np.array([1.0]))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            from_samples([1, 2], weights=[0, 0])

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            from_samples([1.0, float("nan")])
        with pytest.raises(ValueError):
            from_samples([1.0, float("inf")])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            from_samples([1, 2], weights=[1, -1])

    def test_zero_weight_atom_dropped(self):
        d = from_samples([1, 2, 3], weights=[1, 0, 1])
        assert d.values.tolist() == [1.0, 3.0]

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(0.01, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        st.randoms(),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        a = from_samples([v for v, _ in pairs], [w for _, w in pairs])
        b = from_samples([v for v, _ in shuffled], [w for _, w in shuffled])
        assert a.values.tolist() == b.values.tolist()
        assert a.probs == pytest.approx(b.probs, abs=1e-12)


class TestBasicFunctionals:
    def test_two_atom(self):
        d = from_samples([0, 3], weights=[0.5, 0.5])
        assert esssup(d) == 3.0
        assert essinf(d) == 0.0
        assert expectation(d) == pytest.approx(1.5, abs=1e-15)

    def test_constant(self):
        d = from_samples([2.5])
        assert esssup(d) == essinf(d) == expectation(d) == 2.5

    def test_signed_expectation(self):
        d = from_samples([-1, 1], weights=[0.25, 0.75])
        assert expectation(d) == pytest.approx(0.5, abs=1e-15)


class TestVarLevel:
    # the tail mean reports the left-continuous lower quantile as its t*
    def test_boundary_is_left_continuous(self):
        d = from_samples([0, 1])
        assert _avar(d, 0.5).t_star == 0.0
        assert _avar(d, 0.6).t_star == 1.0

    def test_alpha_zero_gives_essinf(self):
        d = from_samples([3, 7, 9], weights=[1, 2, 1])
        assert _avar(d, 0.0).t_star == essinf(d)

    def test_alpha_out_of_range(self):
        d = from_samples([0, 1])
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0,1\]"):
                RiskSpec(bad, 1.0)
        # level 1 is the essential supremum, with no quantile
        assert evar(d, RiskSpec(1.0, 1.0)).t_star is None

    @given(st.floats(0.0, 0.999), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_quantile_between_bounds(self, alpha, seed):
        rng = np.random.default_rng(seed)
        d = from_samples(rng.uniform(-5, 5, 6))
        assert essinf(d) <= _avar(d, alpha).t_star <= esssup(d)


class TestLpNorm:
    # the reference the norm sandwiches compare the risk against
    def test_indicator_norm(self):
        d = from_samples([0.0, 1.0], weights=[0.75, 0.25])
        assert power_norm(d, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_sup_norm(self):
        d = from_samples([-4.0, 1.0], weights=[0.5, 0.5])
        assert power_norm(d, math.inf) == 4.0

    def test_zero_atom_drops_out_at_positive_order(self):
        d = from_samples([0, 2])
        assert power_norm(d, 2.0) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_single_atom_at_negative_order(self):
        assert power_norm(from_samples([2]), -1.0) == pytest.approx(2.0, rel=1e-14)

    def test_two_atoms_at_negative_order(self):
        d = from_samples([2, 1])
        expected = (0.5 * 2.0 ** -2 + 0.5 * 1.0 ** -2) ** -0.5
        assert power_norm(d, -2.0) == pytest.approx(expected, rel=1e-14)

    def test_all_zero_values_give_zero(self):
        assert power_norm(from_samples([0]), 2.0) == 0.0

    def test_matches_direct_powers(self):
        rng = np.random.default_rng(11)
        d = from_samples(rng.uniform(0, 10, 5))
        for p in (1.5, 2.0, 7.0, -0.5, -3.0):
            direct = float(np.dot(d.probs, d.values ** p)) ** (1 / p)
            assert power_norm(d, p) == pytest.approx(direct, rel=1e-12)


class TestCanonicalization:
    def test_direct_construction_sorts_and_merges(self):
        d = DiscreteDistribution(np.array([2.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
        assert d.values.tolist() == [1.0, 2.0]
        assert d.probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_probabilities_sum_to_one(self):
        d = from_samples([1, 2, 3], weights=[5, 5, 5])
        assert abs(float(d.probs.sum()) - 1.0) < 1e-12

    def test_immutable_arrays(self):
        d = from_samples([1, 2])
        with pytest.raises(ValueError):
            d.values[0] = 7.0
