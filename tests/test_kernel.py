"""The log-moment kernel: agreement with direct power sums, edge cases, the
scratch-writing solves against the allocating reference, no scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyi_risk import evar_power, evar_shannon, from_samples
from renyi_risk.distribution import _log_gaps, _log_moments
from renyi_risk.evar import DEFAULT_TOL

from oracles import evar_power_alloc, evar_shannon_alloc

SRC = Path(__file__).resolve().parent.parent / "src"


def direct(p, x, k):
    """log sum p x^k with plain powers and a compensated sum."""
    return math.log(math.fsum(float(pi) * float(xi) ** k for pi, xi in zip(p, x)))


class TestAgainstDirectSums:
    @pytest.mark.parametrize("k", [-2.0, 2.0, 10.0, 1e3])
    def test_both_orders_match_fsum(self, k):
        rng = np.random.default_rng(20)
        p = rng.dirichlet(np.ones(40))
        # kept near 1 so that x^1000 neither overflows nor underflows directly
        x = rng.uniform(0.5, 1.5, 40)
        lk, lk1 = _log_moments(np.log(p), np.log(x), k)
        assert lk == pytest.approx(direct(p, x, k), rel=1e-12, abs=1e-12)
        assert lk1 == pytest.approx(direct(p, x, k - 1.0), rel=1e-12, abs=1e-12)

    def test_shifted_moments_match_fsum_on_both_sides(self):
        rng = np.random.default_rng(21)
        y = np.sort(rng.normal(size=30))
        p = rng.dirichlet(np.ones(30))
        t = float(np.median(y))
        lk, lk1 = _log_moments(*_log_gaps(y, np.log(p), t), 3.0)
        above = y > t
        assert lk == pytest.approx(direct(p[above], y[above] - t, 3.0), rel=1e-12)
        assert lk1 == pytest.approx(direct(p[above], y[above] - t, 2.0), rel=1e-12)
        top = float(y[-1]) + 0.5
        lk, lk1 = _log_moments(*_log_gaps(y, np.log(p), top, gap=True), -2.0)
        assert lk == pytest.approx(direct(p, top - y, -2.0), rel=1e-12)
        assert lk1 == pytest.approx(direct(p, top - y, -3.0), rel=1e-12)


class TestEdgeCases:
    def test_minus_inf_entries_drop_out(self):
        logp = np.log(np.array([0.5, 0.5]))
        logx = np.log(np.array([2.0, 3.0]))
        with_holes = _log_moments(np.array([logp[0], -math.inf, logp[1]]),
                                  np.array([logx[0], 0.7, logx[1]]), 2.0)
        assert with_holes == pytest.approx(_log_moments(logp, logx, 2.0), rel=1e-15)

    def test_all_entries_minus_inf(self):
        logp = np.full(3, -math.inf)
        assert _log_moments(logp, np.zeros(3), 2.0) == (-math.inf, -math.inf)

    def test_one_atom(self):
        lk, lk1 = _log_moments(np.array([math.log(0.25)]), np.array([math.log(3.0)]), -2.0)
        assert lk == pytest.approx(math.log(0.25 * 3.0 ** -2), rel=1e-15)
        assert lk1 == pytest.approx(math.log(0.25 * 3.0 ** -3), rel=1e-15)

    def test_no_active_atom(self):
        y = np.array([0.0, 1.0, 2.0])
        logp = np.log(np.full(3, 1.0 / 3.0))
        logp_t, logx = _log_gaps(y, logp, 2.0)
        assert logx.size == 0
        assert _log_moments(logp_t, logx, 2.0) == (-math.inf, -math.inf)
        logp_t, logx = _log_gaps(y, logp, 0.0, gap=True)
        assert logx.size == 0

    def test_atoms_at_the_shift_are_inactive(self):
        y = np.array([0.0, 1.0, 1.0, 2.0])
        logp = np.log(np.full(4, 0.25))
        assert _log_gaps(y, logp, 1.0)[1].size == 1
        assert _log_gaps(y, logp, 1.0, gap=True)[1].size == 1

    @pytest.mark.parametrize("k", [-2.0, 2.0])
    def test_spreads_of_1e_plus_minus_300(self, k):
        x = np.array([1e-300, 1.0, 1e300])
        p = np.array([0.2, 0.3, 0.5])
        lk, lk1 = _log_moments(np.log(p), np.log(x), k)
        assert math.isfinite(lk) and math.isfinite(lk1)
        # the extreme atom on the side the order favours dominates every other term
        big = 2 if k > 0 else 0
        assert lk == pytest.approx(math.log(p[big]) + k * math.log(x[big]), rel=1e-14)
        assert lk1 == pytest.approx(math.log(p[big]) + (k - 1.0) * math.log(x[big]), rel=1e-14)


def kernel_samples(n):
    """Lognormal, rounded-normal (tied atoms) and weighted Student-t samples."""
    rng = np.random.default_rng(n)
    yield from_samples(rng.lognormal(size=n))
    yield from_samples(np.round(2.0 * rng.normal(size=n)) / 2.0)
    yield from_samples(rng.standard_t(3, size=n), rng.uniform(0.5, 1.5, n))


def assert_same_solve(result, reference):
    if reference is None:  # boundary branch: no solve, no kernel call
        assert result.iterations == 0
        return
    value, t_star, iterations, weights = reference
    assert (result.value, result.t_star, result.iterations) == (value, t_star, iterations)
    assert result.density.weights.tobytes() == weights.tobytes()


class TestScratchKernelParity:
    """The solves that write into caller-owned scratch give bit-identical
    values, optimizers, iteration counts and densities to the allocating
    kernel kept in ``oracles``."""

    @pytest.mark.parametrize("n,alphas", [(3, (0.5, 0.95, 0.99)), (1000, (0.5, 0.95, 0.99)),
                                          (200_000, (0.95,))])
    def test_bitwise_equal_to_the_allocating_kernel(self, n, alphas):
        for d in kernel_samples(n):
            for alpha in alphas:
                # p > 1 reads (Y - t)_+, p < 0 the gap t - Y
                for p in (2.0, 10.0, -2.0, -0.5):
                    assert_same_solve(evar_power(d, alpha, p),
                                      evar_power_alloc(d, alpha, p, DEFAULT_TOL))
                assert_same_solve(evar_shannon(d, alpha), evar_shannon_alloc(d, alpha, 1e-12))

    def test_no_active_atom_end(self):
        # every p > 1 solve evaluates the right end t' = 0, where no atom lies
        # above t and the kernel sums nothing; two atoms keep the bracket short
        d = from_samples([0.0, 1.0], [0.9, 0.1])
        for alpha in (0.5, 0.8):
            assert_same_solve(evar_power(d, alpha, 2.0), evar_power_alloc(d, alpha, 2.0, DEFAULT_TOL))

    @pytest.mark.skipif(sys.platform != "linux", reason="minor faults are read on Linux")
    def test_large_solve_reuses_its_scratch(self):
        # each evaluation of the allocating kernel maps fresh ~1.6 MB
        # temporaries and faults their pages in again; the scratch is
        # faulted in once per solve.  Each solve runs in a fresh process,
        # since earlier allocations in this one decide what a free returns
        # to the system.
        def minor_faults(solve):
            return int(run_python(
                "import resource, sys\n"
                "import numpy as np\n"
                f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
                "from renyi_risk import evar_power, from_samples\n"
                "from renyi_risk.evar import DEFAULT_TOL\n"
                "from oracles import evar_power_alloc\n"
                "d = from_samples(np.random.default_rng(0).lognormal(size=200_000))\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                f"{solve}\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"))

        allocating = minor_faults("evar_power_alloc(d, 0.95, -2.0, DEFAULT_TOL)")
        scratch = minor_faults("evar_power(d, 0.95, -2.0)")
        assert scratch < allocating / 5, (scratch, allocating)


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
