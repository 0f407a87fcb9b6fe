"""The log-moment kernel: agreement with direct power sums, edge cases, the
scratch-writing solve against its allocating twin, against the 60-digit
reference and against float certificates at scale, no scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyi_risk import RiskSpec, esssup, essinf, evar, from_samples
from renyi_risk.distribution import _log_moments
from renyi_risk.evar import DEFAULT_TOL

from oracles import (conjugate_entropy, evar_decimal, evar_theta_alloc, objective_high,
                     objective_neg)

SRC = Path(__file__).resolve().parent.parent / "src"


def direct(p, x, k):
    """log sum p x^k with plain powers and a compensated sum."""
    return math.log(math.fsum(float(pi) * float(xi) ** k for pi, xi in zip(p, x)))


class TestAgainstDirectSums:
    @pytest.mark.parametrize("k", [-2.0, 2.0, 10.0, 1e3])
    def test_both_orders_match_fsum(self, k):
        # the orders k and k - 1, which the solve in t once read together
        rng = np.random.default_rng(20)
        p = rng.dirichlet(np.ones(40))
        # kept near 1 so that x^1000 neither overflows nor underflows directly
        x = rng.uniform(0.5, 1.5, 40)
        for order in (k, k - 1.0):
            assert _log_moments(np.log(p), np.log(x), order) == pytest.approx(
                direct(p, x, order), rel=1e-12, abs=1e-12)

    def test_shifted_moments_match_fsum_on_both_sides(self):
        rng = np.random.default_rng(21)
        y = np.sort(rng.normal(size=30))
        p = rng.dirichlet(np.ones(30))
        d = from_samples(y, p)
        logp = np.log(d.probs)
        t = float(np.median(y))
        above = y > t
        assert _log_moments(logp[above], np.log(d.values[above] - t), 3.0) == pytest.approx(
            direct(p[above], y[above] - t, 3.0), rel=1e-12)
        top = float(y[-1]) + 0.5
        assert _log_moments(logp, np.log(top - d.values), -2.0) == pytest.approx(
            direct(p, top - y, -2.0), rel=1e-12)


class TestEdgeCases:
    def test_minus_inf_entries_drop_out(self):
        logp = np.log(np.array([0.5, 0.5]))
        logx = np.log(np.array([2.0, 3.0]))
        with_holes = _log_moments(np.array([logp[0], -math.inf, logp[1]]),
                                  np.array([logx[0], 0.7, logx[1]]), 2.0)
        assert with_holes == pytest.approx(_log_moments(logp, logx, 2.0), rel=1e-15)

    def test_all_entries_minus_inf(self):
        logp = np.full(3, -math.inf)
        assert _log_moments(logp, np.zeros(3), 2.0) == -math.inf

    def test_one_atom(self):
        assert _log_moments(np.array([math.log(0.25)]), np.array([math.log(3.0)]),
                            -2.0) == pytest.approx(math.log(0.25 * 3.0 ** -2), rel=1e-15)

    def test_no_active_atom(self):
        # no atom above the shift: the plus part is zero, its log -inf
        assert _log_moments(np.empty(0), np.empty(0), 2.0) == -math.inf

    def test_atoms_at_the_shift_are_inactive(self):
        d = from_samples([0.0, 1.0, 1.0, 2.0])
        # only the atom at 2 lies above 1: (0.25 * 1^2)^(1/2)
        above = d.values > 1.0
        lk = _log_moments(np.log(d.probs[above]), np.log(d.values[above] - 1.0), 2.0)
        assert math.exp(lk / 2.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("k", [-2.0, 2.0])
    def test_spreads_of_1e_plus_minus_300(self, k):
        x = np.array([1e-300, 1.0, 1e300])
        p = np.array([0.2, 0.3, 0.5])
        # the extreme atom on the side the order favours dominates every other term
        big = 2 if k > 0 else 0
        for order in (k, k - 1.0):
            lk = _log_moments(np.log(p), np.log(x), order)
            assert math.isfinite(lk)
            assert lk == pytest.approx(math.log(p[big]) + order * math.log(x[big]), rel=1e-14)


def kernel_samples(n):
    """Lognormal, rounded-normal (tied atoms) and weighted Student-t samples."""
    rng = np.random.default_rng(n)
    yield from_samples(rng.lognormal(size=n))
    yield from_samples(np.round(2.0 * rng.normal(size=n)) / 2.0)
    yield from_samples(rng.standard_t(3, size=n), rng.uniform(0.5, 1.5, n))


ORDERS = (2.0, 10.0, -2.0, -0.5, math.inf)


def assert_same_solve(result, reference):
    if reference is None:  # boundary branch: no solve, no kernel call
        assert result.iterations == 0
        return
    value, t_star, iterations, weights = reference
    assert (result.value, result.t_star, result.iterations) == (value, t_star, iterations)
    assert result.density.weights.tobytes() == weights.tobytes()


class TestScratchKernelParity:
    """The solve that writes into caller-owned scratch gives bit-identical
    values, optimizers, iteration counts and densities to its allocating
    twin kept in ``oracles``."""

    @pytest.mark.parametrize("n,alphas", [(3, (0.5, 0.95, 0.99)), (1000, (0.5, 0.95, 0.99)),
                                          (200_000, (0.95,))])
    def test_bitwise_equal_to_the_allocating_kernel(self, n, alphas):
        for d in kernel_samples(n):
            for alpha in alphas:
                # p > 1 drops the atoms with u <= 0, p < 0 and +inf keep every atom
                for p in ORDERS:
                    assert_same_solve(evar(d, RiskSpec(alpha, p)),
                                      evar_theta_alloc(d, alpha, p, DEFAULT_TOL))

    def test_no_active_atom_end(self):
        # past theta = p the lower of two atoms has u <= 0, so every p > 1
        # solve evaluates an end where no atom below the top one is active
        d = from_samples([0.0, 1.0], [0.9, 0.1])
        for alpha in (0.5, 0.8):
            assert_same_solve(evar(d, RiskSpec(alpha, 2.0)),
                              evar_theta_alloc(d, alpha, 2.0, DEFAULT_TOL))

    def test_root_past_the_clamp(self):
        # at p = -1e-3 the root of h lies past theta = e^700: both stop at the
        # clamp with no steps
        d = from_samples([0.0, 1.0])
        for alpha in (0.3, 0.49):
            assert_same_solve(evar(d, RiskSpec(alpha, -1e-3)),
                              evar_theta_alloc(d, alpha, -1e-3, DEFAULT_TOL))

    def test_roots_near_the_clamp(self):
        # small |p| puts roots on both sides of s_max; those below it lie in a
        # bracket whose upper part evaluates h at the clamp
        for atoms in ([0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 4.0]):
            d = from_samples(atoms)
            for alpha in (0.3, 0.4, 0.5, 0.6):
                for p in (-np.logspace(-3, -1, 81)).tolist():
                    assert_same_solve(evar(d, RiskSpec(alpha, p)),
                                      evar_theta_alloc(d, alpha, p, DEFAULT_TOL))

    @pytest.mark.skipif(sys.platform != "linux", reason="minor faults are read on Linux")
    def test_large_solve_reuses_its_scratch(self):
        # each evaluation of the allocating twin maps fresh ~1.6 MB
        # temporaries and faults their pages in again; the scratch is
        # faulted in once per solve.  Each solve runs in a fresh process,
        # since earlier allocations in this one decide what a free returns
        # to the system.
        def minor_faults(solve):
            return int(run_python(
                "import resource, sys\n"
                "import numpy as np\n"
                f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
                "from renyi_risk import RiskSpec, evar, from_samples\n"
                "from renyi_risk.evar import DEFAULT_TOL\n"
                "from oracles import evar_theta_alloc\n"
                "d = from_samples(np.random.default_rng(0).lognormal(size=200_000))\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                f"{solve}\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"))

        allocating = minor_faults("evar_theta_alloc(d, 0.95, -2.0, DEFAULT_TOL)")
        scratch = minor_faults("evar(d, RiskSpec(0.95, -2.0))")
        assert scratch < allocating / 5, (scratch, allocating)


def chernoff_objective(d, alpha, theta):
    """(log E e^(theta Y) + log beta) / theta, with theta (Y - esssup) in the
    powers and a compensated sum."""
    m = esssup(d)
    lam = math.log(math.fsum((d.probs * np.exp(theta * (d.values - m))).tolist()))
    return m + (lam - math.log1p(-alpha)) / theta


class TestAgreementWithTheReference:
    """The solve in theta against ``evar_decimal`` on 3 atoms, and against
    float certificates of its own answer on 1000 and 200 000 atoms, where
    60-digit sums over every atom at every step cost too much."""

    def test_values_agree_within_the_spread(self):
        for d in kernel_samples(3):
            spread = esssup(d) - essinf(d)
            for alpha in (0.5, 0.95, 0.99):
                for p in ORDERS:
                    result, reference = evar(d, RiskSpec(alpha, p)), evar_decimal(d, alpha, p)
                    assert (result.iterations == 0) == (reference.evaluations == 0)
                    assert abs(result.value - float(reference.value)) <= 1e-15 * spread, (alpha, p)

    @pytest.mark.parametrize("n,alphas", [(1000, (0.5, 0.95, 0.99)), (200_000, (0.95,))])
    def test_certificates_at_scale(self, n, alphas):
        # the primal objective at the returned t*, in plain powers, the
        # pairing E[YZ] and the density's conjugate-order entropy
        for d in kernel_samples(n):
            spread = esssup(d) - essinf(d)
            for alpha in alphas:
                log_beta = -math.log1p(-alpha)
                for p in ORDERS:
                    r = evar(d, RiskSpec(alpha, p))
                    if r.iterations == 0:  # the boundary branch
                        assert r.value == esssup(d)
                        continue
                    if math.isinf(p):
                        primal = chernoff_objective(d, alpha, r.t_star)
                    elif p > 1.0:
                        primal = objective_high(d, alpha, p, r.t_star)
                    else:
                        primal = objective_neg(d, alpha, p, r.t_star)
                    pairing = math.fsum((d.probs * d.values * r.density.weights).tolist())
                    entropy = conjugate_entropy(d, r.density.weights, p)
                    assert abs(primal - r.value) <= 1e-15 * spread, (n, alpha, p)
                    assert abs(pairing - r.value) <= 3e-14 * spread, (n, alpha, p)
                    assert abs(entropy - log_beta) <= 1e-12, (n, alpha, p)


def run_python(program):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    program = ("import sys, renyi_risk.cli\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(program) == "[]"


def test_library_runs_without_scipy():
    """Importing and solving never touches scipy, even when it cannot be imported."""
    program = (
        "import sys, math\n"
        "sys.modules['scipy'] = None\n"
        "import renyi_risk.cli\n"
        "from renyi_risk import RiskSpec, evar, from_samples\n"
        "d = from_samples([0.0, 1.0, 4.0, 9.0], [0.4, 0.3, 0.2, 0.1])\n"
        "for a in (0.5, 0.95):\n"
        "    for o in (1.0, 2.0, 10.0, math.inf, -2.0):\n"
        "        evar(d, RiskSpec(a, o))\n"
        "print('ok')\n"
    )
    assert run_python(program) == "ok"
