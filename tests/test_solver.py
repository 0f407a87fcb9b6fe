"""The root finder: bracket growth, safeguarded interpolation, and convex minimization through it."""

import math

import numpy as np
import pytest

from renyi_risk import SolverError, find_root, from_samples
from oracles import grid_min, objective_high


def minimize(fprime, lo, hi, tol=1e-11):
    """Minimizer of a convex function from the root of its nondecreasing derivative."""
    return find_root(fprime, lo, hi, tol)


class TestMinimizeConvex:
    def test_expands_right_to_reach_the_minimum(self):
        t, _ = minimize(lambda t: 2.0 * (t - 3.0), 0.0, 1.0, tol=1e-12)
        assert t == pytest.approx(3.0, abs=1e-9)

    def test_kink_handled_by_a_one_sided_derivative(self):
        # |t| has a jump in its derivative at the minimum; the bracket follows the sign
        t, _ = minimize(lambda t: 1.0 if t >= 0.0 else -1.0, -1.0, 0.5, tol=1e-12)
        assert t == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_grid_on_a_risk_objective(self):
        # order 2: the derivative of t + sqrt(beta) ||(Y - t)_+||_2 in closed form
        d = from_samples([0, 1])
        beta = 1.0 / (1.0 - 0.5)

        def fprime(t):
            plus = np.maximum(d.values - t, 0.0)
            norm = math.sqrt(float(np.dot(d.probs, plus ** 2)))
            return 1.0 if norm == 0.0 else 1.0 - math.sqrt(beta) * float(np.dot(d.probs, plus)) / norm

        t, _ = minimize(fprime, -2.0, 1.0)
        f = lambda t: objective_high(d, 0.5, 2.0, t)
        oracle = grid_min(f, -2.0, 1.0, 300001)
        assert f(t) == pytest.approx(oracle, abs=1e-6)

    def test_expands_left(self):
        t, _ = minimize(lambda t: 2.0 * (t + 9.0), -1.0, 0.0)
        assert t == pytest.approx(-9.0, abs=1e-8)

    def test_expansion_exhaustion_raises(self):
        # the minimum of -t escapes to +inf; no sign change is ever found
        with pytest.raises(SolverError):
            minimize(lambda t: -1.0, 0.0, 1.0)

    def test_iteration_bound(self):
        tol = 1e-9
        t, steps = minimize(lambda t: 2.0 * (t - 0.3), -1.0, 1.0, tol=tol)
        assert steps <= math.ceil(math.log2(2.0 / tol)) + 1

    def test_deterministic(self):
        fprime = lambda t: 4.0 * (t - 1.7) ** 3 + (1.0 if t >= 0.0 else -1.0)
        assert minimize(fprime, -2.0, 0.5) == minimize(fprime, -2.0, 0.5)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            find_root(lambda t: t, -1.0, 1.0, tol=0.0)


class TestBisect:
    def test_linear_root(self):
        root, _ = find_root(lambda t: t - 1.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_no_sign_change_raises(self):
        with pytest.raises(SolverError):
            find_root(lambda t: 1.0, 0.0, 2.0, 1e-12)

    def test_tilt_entropy_budget_root(self):
        # two-atom exponential tilt: solve KL(theta) = log(1/(1-alpha))
        d = from_samples([0.0, 1.0])
        log_beta = -math.log1p(-0.4)
        logp = np.log(d.probs)

        def kl(theta):
            s = logp + theta * d.values
            smax = s.max()
            lam = smax + math.log(np.exp(s - smax).sum())
            q = np.exp(s - lam)
            return theta * float(np.dot(q, d.values)) - lam

        theta, _ = find_root(lambda t: kl(t) - log_beta, 0.0, 64.0, 1e-13)
        assert kl(theta) == pytest.approx(log_beta, abs=1e-10)

    def test_endpoint_roots(self):
        # a zero at hi already satisfies g(lo) < 0 <= g(hi); a zero at lo is
        # wrong-signed there, so lo moves left and the root ends up inside
        tol = 1e-12
        lo_root, _ = find_root(lambda t: t, 0.0, 2.0, tol)
        hi_root, _ = find_root(lambda t: t - 2.0, 0.0, 2.0, tol)
        assert abs(lo_root) <= tol * 5.0
        assert abs(hi_root - 2.0) <= tol * 5.0

    @pytest.mark.parametrize("lo, hi, root", [(0.0, 1.0, 37.25), (-1.0, 0.0, -1e4)])
    def test_grows_the_wrong_signed_end(self, lo, hi, root):
        calls = []

        def g(t):
            calls.append(t)
            return t - root

        r, _ = find_root(g, lo, hi, 1e-12)
        assert r == pytest.approx(root, rel=1e-11)
        # only the end on the root's side moved; the other starting end bounds
        # every evaluation (past lo, hi is never evaluated)
        assert min(calls) == lo if root > hi else max(calls) == lo

    @pytest.mark.parametrize("lo, hi, root", [
        (1.0, 3.0, -50.0), (1.0, 3.0, 1.0), (1.0, 3.0, 2.0), (1.0, 3.0, 3.5), (1.0, 3.0, 700.0),
        (-1.0, 0.0, -1e4), (0.0, 1.0, 37.25),
    ])
    def test_growth_evaluates_each_point_once(self, lo, hi, root):
        calls = []

        def g(t):
            calls.append(t)
            return math.atan(t - root)

        _, steps = find_root(g, lo, hi, 1e-12)
        # one evaluation per doubling, each twice as far from the end that
        # stays; once g(lo) >= 0 the starting hi is never evaluated
        growth = [lo]
        if lo >= root:
            while growth[-1] >= root:
                growth.append(hi - 2.0 * (hi - growth[-1]))
        else:
            growth.append(hi)
            while growth[-1] < root:
                growth.append(lo + 2.0 * (growth[-1] - lo))
        assert calls[: len(calls) - steps] == growth
        assert len(set(calls)) == len(calls)
        assert (hi in calls) == (lo < root)

    def test_expansion_cap(self):
        # 2^400 reaches 1e120, so a root at 1e150 is out of reach but one at 1e100 is not
        with pytest.raises(SolverError):
            find_root(lambda t: t - 1e150, 0.0, 1.0, 1e-12)
        r, _ = find_root(lambda t: t - 1e100, 0.0, 1.0, 1e-12)
        assert r == pytest.approx(1e100, rel=1e-11)

    @pytest.mark.parametrize("root", [0.0, 0.3, -7.5, 1e6])
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_width_and_step_bounds(self, root, tol):
        lo, hi = -2.0, 2.0
        r, steps = find_root(lambda t: t - root, lo, hi, tol)
        # the final bracket holds the root and is at most tol (1 + |lo| + |hi|)
        # wide, so the midpoint is within half of that
        assert abs(r - root) <= 0.5 * tol * (1.0 + 2.0 * abs(r) + 2.0 * tol)
        # the bracket bisected is the grown one: the last doubling's outer
        # half, between the two evaluations either side of the root
        first_lo, first_hi = lo, hi
        while lo >= root:
            lo, hi = first_hi - 2.0 * (first_hi - lo), lo
        while hi < root:
            lo, hi = hi, first_lo + 2.0 * (hi - first_lo)
        assert steps <= math.ceil(math.log2((hi - lo) / tol)) + 1

    @pytest.mark.parametrize("g, lo, hi, root, expected_steps", [
        (lambda t: t - 1.0, 0.0, 3.0, 1.0, 63),
        (lambda t: math.tanh(t - 0.3), -1.0, 2.0, 0.3, 8),
    ], ids=["linear", "tanh"])
    def test_stops_when_the_floats_between_the_ends_run_out(self, g, lo, hi, root,
                                                             expected_steps):
        # no width of 1e-300 (1 + |lo| + |hi|) fits between neighbouring floats
        # near the root, so the search ends when the midpoint equals an end
        tol = 1e-300
        r, steps = find_root(g, lo, hi, tol)
        assert abs(r - root) <= math.ulp(root)
        assert steps == expected_steps
        assert steps <= math.ceil(math.log2((hi - lo) / tol)) + 8


def _adversarial(r):
    """Monotone functions with a sign change at r that defeat plain interpolation."""
    return {
        "step": lambda t: 1.0 if t >= r else -1.0,
        "cube": lambda t: (t - r) ** 3,
        "ninth_power": lambda t: (t - r) ** 9,
        "root_21": lambda t: math.copysign(abs(t - r) ** (1.0 / 21.0), t - r),
        "expm1": lambda t: math.expm1(50.0 * (t - r)),
        "tanh": lambda t: math.tanh(1e6 * (t - r)),
        "inf_at_hi": lambda t: math.inf if t >= 0.999 else (t - r) ** 3,
        "minus_inf_at_lo": lambda t: -math.inf if t <= -0.999 else math.expm1(50.0 * (t - r)),
    }


class TestWorstCase:
    @pytest.mark.parametrize("name", sorted(_adversarial(0.0)))
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_bracket_and_step_guarantee(self, name, tol):
        lo, hi = -0.999, 0.999
        for r in (0.3, -0.6, 1e-7, 0.9989, -0.9989):
            g = _adversarial(r)[name]
            calls = []

            def counted(t):
                calls.append(t)
                return g(t)

            root, steps = find_root(counted, lo, hi, tol)
            # both ends already have the right sign: two calls, then one per step
            assert len(calls) == steps + 2
            below = [t for t in calls if g(t) < 0.0]
            above = [t for t in calls if g(t) >= 0.0]
            a, b = max(below), min(above)
            # the final bracket holds the sign change, is narrow enough, and
            # its midpoint is returned
            assert a < r <= b
            assert b - a <= tol * (1.0 + abs(a) + abs(b))
            assert root == 0.5 * (a + b)
            # the stated guarantee, well inside 2 ceil(log2(w0 / tol)) + 2
            assert steps <= math.ceil(math.log2((hi - lo) / tol)) + 8

    def test_smooth_functions_take_few_steps(self):
        # superlinear on smooth monotone functions: bisection takes 41 steps here
        for g in (lambda t: t - 0.3, lambda t: math.exp(t) - 2.0,
                  lambda t: t ** 3 + t - 0.5, lambda t: math.atan(t - 0.7)):
            _, steps = find_root(g, -1.0, 1.0, 1e-11)
            assert steps <= 10
        # badly scaled ones need the interpolation and the two-step midpoint
        # rule together: without either, some mean exceeds 18
        roots = [-0.9 + 0.1 * k for k in range(19)]
        families = {
            "log": lambda t, r: math.log((t + 2.0) / (r + 2.0)),
            "reciprocal": lambda t, r: 1.0 / (r + 2.0) - 1.0 / (t + 2.0),
            "exp": lambda t, r: math.expm1(5.0 * (t - r)),
            "saturating": lambda t, r: math.exp(-10.0 * (r + 1.0)) - math.exp(-10.0 * (t + 1.0)),
            "steep_power": lambda t, r: (r + 1.01) ** -4 - (t + 1.01) ** -4,
        }
        for name, f in families.items():
            steps = [find_root(lambda t: f(t, r), -1.0, 1.0, 1e-11)[1] for r in roots]
            assert np.mean(steps) <= 15.0, name

    @pytest.mark.parametrize("root", [-0.95, -0.99])
    def test_the_far_end_does_not_stick(self, root):
        # g rises by 1e8 across the bracket, so the secant keeps landing next
        # to the root's side; halving the kept end's value (Illinois) frees it
        g = lambda t: (root + 1.01) ** -4 - (t + 1.01) ** -4
        _, steps = find_root(g, -1.0, 1.0, 1e-11)
        assert steps <= 25
