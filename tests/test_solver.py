"""The root finder: bracket growth, safeguarded Newton steps, and convex minimization through it."""

import math

import numpy as np
import pytest

from renyi_risk import from_samples
from renyi_risk.solver import SolverError, find_root
from oracles import grid_min, objective_high

NAN = math.nan


def minimize(fprime, lo, hi, tol=1e-11, fsecond=lambda t: NAN):
    """Minimizer of a convex function from the root of its nondecreasing
    derivative, with the second derivative as its slope (nan: none)."""
    return find_root(lambda t: (fprime(t), fsecond(t)), lo, hi, tol)


def growth_count(calls, g):
    """Evaluations up to the first whose sign differs from g(lo)'s (or an exact zero)."""
    first = g(calls[0]) < 0.0
    for k, t in enumerate(calls):
        value = g(t)
        if value == 0.0 or (value < 0.0) != first:
            return k + 1
    return len(calls)


class TestMinimizeConvex:
    def test_expands_right_to_reach_the_minimum(self):
        t, _ = minimize(lambda t: 2.0 * (t - 3.0), 0.0, 1.0, tol=1e-12, fsecond=lambda t: 2.0)
        assert t == pytest.approx(3.0, abs=1e-9)

    def test_kink_handled_by_a_one_sided_derivative(self):
        # |t| has a jump in its derivative at the minimum; the bracket follows the sign
        t, _ = minimize(lambda t: 1.0 if t >= 0.0 else -1.0, -1.0, 0.5, tol=1e-12,
                        fsecond=lambda t: 0.0)
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
        t, _ = minimize(lambda t: 2.0 * (t + 9.0), -1.0, 0.0, fsecond=lambda t: 2.0)
        assert t == pytest.approx(-9.0, abs=1e-8)

    def test_expansion_exhaustion_raises(self):
        # the minimum of -t escapes to +inf; no sign change is ever found
        with pytest.raises(SolverError):
            minimize(lambda t: -1.0, 0.0, 1.0, fsecond=lambda t: 0.0)

    def test_iteration_bound(self):
        tol = 1e-9
        t, evaluations = minimize(lambda t: 2.0 * (t - 0.3), -1.0, 1.0, tol=tol,
                                  fsecond=lambda t: 2.0)
        assert evaluations <= math.ceil(math.log2(2.0 / tol)) + 1

    def test_deterministic(self):
        fprime = lambda t: 4.0 * (t - 1.7) ** 3 + (1.0 if t >= 0.0 else -1.0)
        fsecond = lambda t: 12.0 * (t - 1.7) ** 2
        assert minimize(fprime, -2.0, 0.5, fsecond=fsecond) == minimize(fprime, -2.0, 0.5,
                                                                        fsecond=fsecond)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            find_root(lambda t: (t, 1.0), -1.0, 1.0, tol=0.0)


class TestBisect:
    def test_linear_root(self):
        root, _ = find_root(lambda t: (t - 1.0, 1.0), 0.0, 2.0, 1e-12)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_no_sign_change_raises(self):
        with pytest.raises(SolverError):
            find_root(lambda t: (1.0, 0.0), 0.0, 2.0, 1e-12)

    def test_tilt_entropy_budget_root(self):
        # two-atom exponential tilt: solve KL(theta) = log(1/(1-alpha))
        d = from_samples([0.0, 1.0])
        log_beta = -math.log1p(-0.4)
        logp = np.log(d.probs)

        def kl(theta):
            # KL and its slope theta Var_q(Y)
            s = logp + theta * d.values
            smax = s.max()
            lam = smax + math.log(np.exp(s - smax).sum())
            q = np.exp(s - lam)
            mean = float(np.dot(q, d.values))
            return theta * mean - lam, theta * (float(np.dot(q, d.values ** 2)) - mean * mean)

        theta, _ = find_root(lambda t: (kl(t)[0] - log_beta, kl(t)[1]), 0.0, 64.0, 1e-13)
        assert kl(theta)[0] == pytest.approx(log_beta, abs=1e-10)

    def test_endpoint_roots(self):
        # a zero at hi already satisfies g(lo) < 0 <= g(hi); a zero at lo is
        # an exact zero, which stops the search at once
        tol = 1e-12
        lo_root, evaluations = find_root(lambda t: (t, 1.0), 0.0, 2.0, tol)
        hi_root, _ = find_root(lambda t: (t - 2.0, 1.0), 0.0, 2.0, tol)
        assert (lo_root, evaluations) == (0.0, 1)
        assert abs(hi_root - 2.0) <= tol * 5.0

    @pytest.mark.parametrize("lo, hi, root", [(0.0, 1.0, 37.25), (-1.0, 0.0, -1e4)])
    def test_grows_the_wrong_signed_end(self, lo, hi, root):
        calls = []

        def g(t):
            calls.append(t)
            return t - root, 1.0

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
        # without a slope every growth point is a doubling
        calls = []

        def g(t):
            calls.append(t)
            return math.atan(t - root), NAN

        _, evaluations = find_root(g, lo, hi, 1e-12)
        assert evaluations == len(calls)
        # one evaluation per doubling, each twice as far from the end that
        # stays; once g(lo) > 0 the starting hi is never evaluated, and an
        # exact zero at lo ends the search there
        growth = [lo]
        if lo > root:
            while growth[-1] >= root:
                growth.append(hi - 2.0 * (hi - growth[-1]))
        elif lo < root:
            growth.append(hi)
            while growth[-1] < root:
                growth.append(lo + 2.0 * (growth[-1] - lo))
        assert calls[: len(growth)] == growth
        assert len(set(calls)) == len(calls)
        assert (hi in calls) == (lo < root)
        if lo == root:
            assert calls == [lo]

    @pytest.mark.parametrize("slope", ["exact", "tiny", "huge", "negative"])
    @pytest.mark.parametrize("lo, hi, root", [
        (1.0, 3.0, -50.0), (1.0, 3.0, 2.0), (1.0, 3.0, 3.5), (1.0, 3.0, 700.0),
        (-1.0, 0.0, -1e4), (0.0, 1.0, 37.25),
    ])
    def test_newton_growth_evaluates_no_point_twice(self, lo, hi, root, slope):
        # Newton points inside the reach replace doublings; a slope of
        # 1e-300 or -1 is never used, and one of 1e300 makes steps too
        # short to move, which a full doubling follows
        slopes = {"exact": lambda t: 1.0 / (1.0 + (t - root) ** 2), "tiny": lambda t: 1e-300,
                  "huge": lambda t: 1e300, "negative": lambda t: -1.0}
        calls = []

        def g(t):
            calls.append(t)
            return math.atan(t - root), slopes[slope](t)

        r, evaluations = find_root(g, lo, hi, 1e-12)
        assert r == pytest.approx(root, rel=1e-11, abs=1e-11)
        assert evaluations == len(calls)
        assert len(set(calls)) == len(calls)
        # at most one Newton point between two doublings
        doublings = 1
        while not (hi - 2.0 ** doublings * (hi - lo) < root < lo + 2.0 ** doublings * (hi - lo)):
            doublings += 1
        assert growth_count(calls, lambda t: math.atan(t - root)) <= 2 * doublings + 2

    @pytest.mark.parametrize("slope", [1.0, NAN])
    def test_exact_zero_stops_growth(self, slope):
        # the growth point that is a zero of g is returned at once
        calls = []

        def g(t):
            calls.append(t)
            return t - 5.0, slope

        assert find_root(g, 1.0, 3.0, 1e-12) == (5.0, len(calls))
        assert calls[-1] == 5.0 and len(calls) <= 4

    def test_exact_zero_stops_the_steps(self):
        # no slope at lo, so growth takes hi = 3 and the bracket [1, 3] holds
        # the root of a line through 1.5; lo has the smaller |g| but no
        # slope, so the first step is the Newton point from hi, the root
        calls = []

        def g(t):
            calls.append(t)
            return t - 1.5, NAN if t == 1.0 else 1.0

        assert find_root(g, 1.0, 3.0, 1e-12) == (1.5, 3)
        assert calls == [1.0, 3.0, 1.5]

    def test_nan_slope_takes_the_secant_point(self):
        # without a slope growth doubles to hi, and the first step is the
        # secant through (0, -1) and (4, 3), the root of the line
        calls = []

        def g(t):
            calls.append(t)
            return t - 1.0, NAN

        assert find_root(g, 0.0, 4.0, 1e-12) == (1.0, 3)
        assert calls == [0.0, 4.0, 1.0]

    def test_expansion_cap(self):
        # 2^400 reaches 1e120, so a root at 1e150 is out of reach but one at 1e100 is not
        with pytest.raises(SolverError):
            find_root(lambda t: (t - 1e150, 1.0), 0.0, 1.0, 1e-12)
        r, _ = find_root(lambda t: (t - 1e100, 1.0), 0.0, 1.0, 1e-12)
        assert r == pytest.approx(1e100, rel=1e-11)

    @pytest.mark.parametrize("root", [0.0, 0.3, -7.5, 1e6])
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_width_and_step_bounds(self, root, tol):
        lo, hi = -2.0, 2.0
        calls = []

        def g(t):
            calls.append(t)
            return t - root, 1.0

        r, evaluations = find_root(g, lo, hi, tol)
        # the final bracket holds the root and is at most tol (1 + |lo| + |hi|)
        # wide, so the midpoint is within half of that
        assert abs(r - root) <= 0.5 * tol * (1.0 + 2.0 * abs(r) + 2.0 * tol)
        # the bracket the steps start from lies within the last doubling's
        # outer half, between the two evaluations either side of the root
        first_lo, first_hi = lo, hi
        while lo >= root:
            lo, hi = first_hi - 2.0 * (first_hi - lo), lo
        while hi < root:
            lo, hi = hi, first_lo + 2.0 * (hi - first_lo)
        steps = evaluations - growth_count(calls, lambda t: t - root)
        assert steps <= math.ceil(math.log2((hi - lo) / tol)) + 1

    @pytest.mark.parametrize("g, lo, hi, root, expected", [
        (lambda t: (math.pi * t - 0.1, math.pi), 0.0, 3.0, 0.1 / math.pi, 4),
        (lambda t: (math.tanh(t - 0.3) - 0.1, 1.0 / math.cosh(t - 0.3) ** 2), -1.0, 2.0,
         0.3 + math.atanh(0.1), 14),
    ], ids=["linear", "tanh"])
    def test_stops_when_the_floats_between_the_ends_run_out(self, g, lo, hi, root, expected):
        # no width of 1e-300 (1 + |lo| + |hi|) fits between neighbouring floats
        # near the root, and neither g is zero at a float there (pi t - 0.1
        # is not zero within 6 ulps of 0.1 / pi), so the search ends when the
        # midpoint equals an end
        tol = 1e-300
        r, evaluations = find_root(g, lo, hi, tol)
        assert abs(r - root) <= math.ulp(root)
        assert g(r)[0] != 0.0
        assert evaluations == expected
        assert evaluations <= math.ceil(math.log2((hi - lo) / tol)) + 8


def _adversarial(r):
    """Monotone functions with a sign change at r that defeat plain Newton
    steps, as (value, slope) pairs."""
    def sech2(z):
        return 0.0 if abs(z) > 350.0 else 1.0 / math.cosh(z) ** 2

    return {
        "step": lambda t: (1.0 if t >= r else -1.0, 0.0),
        "cube": lambda t: ((t - r) ** 3, 3.0 * (t - r) ** 2),
        "ninth_power": lambda t: ((t - r) ** 9, 9.0 * (t - r) ** 8),
        "root_21": lambda t: (math.copysign(abs(t - r) ** (1.0 / 21.0), t - r),
                              abs(t - r) ** (-20.0 / 21.0) / 21.0 if t != r else math.inf),
        "expm1": lambda t: (math.expm1(50.0 * (t - r)), 50.0 * math.exp(50.0 * (t - r))),
        "tanh": lambda t: (math.tanh(1e6 * (t - r)), 1e6 * sech2(1e6 * (t - r))),
        "inf_at_hi": lambda t: ((math.inf, NAN) if t >= 0.999
                                else ((t - r) ** 3, 3.0 * (t - r) ** 2)),
        "minus_inf_at_lo": lambda t: ((-math.inf, NAN) if t <= -0.999
                                      else (math.expm1(50.0 * (t - r)),
                                            50.0 * math.exp(50.0 * (t - r)))),
    }


#: Slopes that replace each function's own: none, vanishing, enormous and of the wrong sign.
SLOPES = {"nan": NAN, "tiny": 1e-300, "huge": 1e300, "negative": -1.0}


def check_guarantee(f, slope, tol, lo=-0.999, hi=0.999):
    """The bracket and step guarantee on [lo, hi] for (value, slope) pairs
    f, with ``slope`` in place of f's own unless it is None."""
    value = lambda t: f(t)[0]
    calls = []

    def counted(t):
        calls.append(t)
        v, s = f(t)
        return v, s if slope is None else slope

    root, evaluations = find_root(counted, lo, hi, tol)
    assert len(calls) == evaluations
    assert math.isfinite(root)
    growth = growth_count(calls, value)
    # both ends already have the right sign: a Newton point and the far end
    # at most, then one evaluation per step
    assert growth <= 3
    if value(root) == 0.0:  # an exact zero ends the search there
        assert calls[-1] == root
        return
    below = [t for t in calls if value(t) < 0.0]
    above = [t for t in calls if value(t) >= 0.0]
    a, b = max(below), min(above)
    # the final bracket holds the sign change, is narrow enough or has no
    # float between its ends, and its midpoint is returned (both from halves,
    # which do not overflow where |a| + |b| does)
    assert 0.5 * b - 0.5 * a <= tol * (0.5 + 0.5 * abs(a) + 0.5 * abs(b)) \
        or math.nextafter(a, b) == b
    assert root == 0.5 * a + 0.5 * b
    # the stated guarantee, well inside 2 ceil(log2(w0 / tol)) + 2, with w0
    # from its half, which does not overflow where hi - lo does
    assert evaluations - growth <= math.ceil(1.0 + math.log2(0.5 * hi - 0.5 * lo)
                                             - math.log2(tol)) + 8
    return a, b


class TestWorstCase:
    @pytest.mark.parametrize("name", sorted(_adversarial(0.0)))
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_bracket_and_step_guarantee(self, name, tol):
        for r in (0.3, -0.6, 1e-7, 0.9989, -0.9989):
            ends = check_guarantee(_adversarial(r)[name], None, tol)
            if ends is not None:
                assert ends[0] < r <= ends[1]

    @pytest.mark.parametrize("slope", sorted(SLOPES))
    @pytest.mark.parametrize("name", sorted(_adversarial(0.0)))
    def test_any_slope_keeps_the_guarantee(self, name, slope):
        # none, vanishing, enormous and wrong-signed slopes in place of each
        # function's own: Newton points leave the bracket, stall or overshoot,
        # and the midpoint and the projection still bound the steps
        for tol in (1e-6, 1e-11):
            for r in (0.3, -0.6, 1e-7, 0.9989, -0.9989):
                ends = check_guarantee(_adversarial(r)[name], SLOPES[slope], tol)
                if ends is not None:
                    assert ends[0] < r <= ends[1]

    @pytest.mark.parametrize("slope", ["nan", "negative", "huge"])
    @pytest.mark.parametrize("root", [0.3, 1e300, -1e-300])
    def test_ends_without_a_step_cap_at_the_ends_of_the_float_range(self, root, slope):
        # the projection alone bounds the steps: at the least tol on a
        # bracket of width 2e307 that is ceil(log2(w0 / tol)) + 8 = 2103
        # steps (2 072 evaluations at most here), so no cap is needed
        for f in (lambda t: (t - root, 1.0), _adversarial(root)["step"]):
            ends = check_guarantee(f, SLOPES[slope], 5e-324, -1e307, 1e307)
            if ends is not None:
                assert ends[0] < root <= ends[1]

    @pytest.mark.parametrize("lo, hi, root", [(1e308, 1.7e308, 1.5e308),
                                              (-1.7e308, -1e308, -1.5e308)])
    def test_brackets_whose_ends_sum_past_the_float_range(self, lo, hi, root):
        # lo + hi and tol (1 + |lo| + |hi|) overflow here, which returned
        # (inf, 2); without slopes no Newton point lands on the root first
        ends = check_guarantee(lambda t: (t - root, 1.0), NAN, 1e-14, lo, hi)
        assert ends[0] < root <= ends[1]

    @pytest.mark.parametrize("slope", [NAN, 1.0])
    @pytest.mark.parametrize("lo, hi, root", [(-1.7e308, 1.7e308, 1.0),
                                              (-1e308, 1.7e308, 1e308)])
    def test_brackets_wider_than_the_float_range(self, lo, hi, root, slope):
        # hi - lo overflows here, and growth's first cap, lo + (hi - lo),
        # came out inf, which was evaluated and returned: (inf, 2) or (inf, 3)
        ends = check_guarantee(lambda t: (t - root, 1.0), slope, 1e-14, lo, hi)
        if ends is not None:  # else the root was evaluated and returned
            assert ends[0] < root <= ends[1]

    def test_smooth_functions_take_few_steps(self):
        # quadratic on smooth monotone functions: bisection takes 41 steps here
        for g in (lambda t: (t - 0.3, 1.0), lambda t: (math.exp(t) - 2.0, math.exp(t)),
                  lambda t: (t ** 3 + t - 0.5, 3.0 * t * t + 1.0),
                  lambda t: (math.atan(t - 0.7), 1.0 / (1.0 + (t - 0.7) ** 2))):
            _, evaluations = find_root(g, -1.0, 1.0, 1e-11)
            assert evaluations <= 10
        # badly scaled ones, whose Newton steps from the worse end leave the
        # bracket: Newton from the end with the smaller |g| takes 7.3-10.7
        # evaluations on average, against 8.7-11.8 from the last point
        # evaluated and 19-25 for the secant alone (nan slopes)
        roots = [-0.9 + 0.1 * k for k in range(19)]
        families = {
            "log": lambda t, r: (math.log((t + 2.0) / (r + 2.0)), 1.0 / (t + 2.0)),
            "reciprocal": lambda t, r: (1.0 / (r + 2.0) - 1.0 / (t + 2.0), (t + 2.0) ** -2),
            "exp": lambda t, r: (math.expm1(5.0 * (t - r)), 5.0 * math.exp(5.0 * (t - r))),
            "saturating": lambda t, r: (math.exp(-10.0 * (r + 1.0)) - math.exp(-10.0 * (t + 1.0)),
                                        10.0 * math.exp(-10.0 * (t + 1.0))),
            "steep_power": lambda t, r: ((r + 1.01) ** -4 - (t + 1.01) ** -4,
                                         4.0 * (t + 1.01) ** -5),
        }
        for name, f in families.items():
            evaluations = [find_root(lambda t: f(t, r), -1.0, 1.0, 1e-11)[1] for r in roots]
            assert np.mean(evaluations) <= 12.0, name

    @pytest.mark.parametrize("root", [-0.95, -0.99])
    def test_the_far_end_does_not_stick(self, root):
        # g rises by 1e8 across the bracket, so Newton points from the end
        # near the root land next to it, while those from the far end leave
        # the bracket; stepping from the end with the smaller |g| frees it
        g = lambda t: ((root + 1.01) ** -4 - (t + 1.01) ** -4, 4.0 * (t + 1.01) ** -5)
        _, evaluations = find_root(g, -1.0, 1.0, 1e-11)
        assert evaluations <= 25

    @pytest.mark.parametrize("f, slope", [
        (lambda t: t ** 3 - 7.0, lambda t: 3.0 * t * t),
        (lambda t: math.exp(t) - 9.0, math.exp),
    ], ids=["cube", "exp"])
    def test_a_converged_newton_point_ends_the_search(self, f, slope):
        # convex g with exact slopes: Newton approaches the root from one
        # side, so the far end never moves; once its point rounds onto the
        # near end, half the stopping width past it closes the bracket
        # (52 and 49 evaluations when the steps fell back to midpoints)
        tol = 1e-14
        root, evaluations = find_root(lambda t: (f(t), slope(t)), 1.0, 3.0, tol)
        # plain Newton from 3 until its step is within the stopping width
        t, newton = 3.0, 0
        while True:
            step = f(t) / slope(t)
            t, newton = t - step, newton + 1
            if abs(step) <= tol * (1.0 + 2.0 * abs(t)):
                break
        assert evaluations <= newton + 3
        assert abs(root - t) <= tol * (1.0 + 2.0 * abs(t))
