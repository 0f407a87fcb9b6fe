"""Supremum oracle, dual norms, extremal witnesses and the Kusuoka form."""

import importlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from renyi_risk import (
    Density,
    KusuokaMeasure,
    RiskSpec,
    conjugate,
    dual_norm,
    dual_norm_raw,
    esssup,
    evar,
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
from renyi_risk.duality import (
    _BLOCK,
    _CHUNK,
    _REACH,
    _block_bounds,
    _block_boxes,
    _lattice,
    _scan,
)
from oracles import (
    dual_norm_grid,
    is_sorted_lattice,
    kusuoka_evaluate_loop,
    kusuoka_reference,
    lattice_rows,
    rand_dist,
    refine_offsets_reference,
    refine_reference,
    sup_oracle_reference,
)


def pair(d, weights):
    return float(np.dot(d.probs * d.values, weights))


def evar2_batch(values, probs, alpha):
    """Order-2 risk values for a batch of variables (rows) on shared probabilities.

    Used as the independent evaluation inside the random-witness dual-norm
    oracle.  Each row's objective t + beta^(1/2) ||(V - t)_+||_2 is convex in
    t, with derivative 1 - beta^(1/2) E(V - t)_+ / ||(V - t)_+||_2, and 1 from
    max V on.  Below min V - (max V - min V) the derivative is negative, since
    the gap to the mean there exceeds the standard deviation, so bisecting
    its sign from that bracket to float resolution finds every row's minimizer.
    """
    root_beta = math.sqrt(1.0 / (1.0 - alpha))
    top, bottom = values.max(axis=1), values.min(axis=1)
    lo, hi = bottom - (top - bottom) - 1.0, top

    def norms(t):
        plus = np.maximum(values - t[:, None], 0.0)
        return plus @ probs, np.sqrt((plus * plus) @ probs)

    for _ in range(64):
        t = 0.5 * (lo + hi)
        mean, norm = norms(t)
        rising = root_beta * mean <= norm  # the derivative is >= 0 at t
        lo, hi = np.where(rising, lo, t), np.where(rising, t, hi)
    t = 0.5 * (lo + hi)
    return t + root_beta * norms(t)[1]


class TestSupOracle:
    def test_constant_variable(self):
        d = from_samples([2.0])
        val, z = sup_oracle(d, RiskSpec(0.5, 2.0), 50)
        assert val == 2.0
        assert z.weights.tolist() == [1.0]

    def test_level_zero_only_admits_the_constant_density(self):
        # so there is nothing to search: the oracle rejects alpha 0, whose
        # value evar gives in closed form, and its level range is (0, 1) as
        # in the dual norms
        d = from_samples([0.0, 1.0, 4.0], weights=[0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="no entropy budget"):
            sup_oracle(d, RiskSpec(0.0, 2.0), 200)
        assert evar(d, RiskSpec(0.0, 2.0)).value == pytest.approx(expectation(d), abs=1e-12)

    def test_two_atom_agreement_with_scalar_route(self):
        d = from_samples([0.0, 1.0], weights=[0.6, 0.4])
        for p in (2.0, -1.0):
            val, _ = sup_oracle(d, RiskSpec(0.5, p), 400)
            direct = evar(d, RiskSpec(0.5, p)).value
            assert abs(val - direct) <= 5e-3
            assert val <= direct + 1e-9

    def test_three_atom_agreement_with_scalar_route(self):
        d = from_samples([0.0, 1.0, 4.0], weights=[0.5, 0.3, 0.2])
        val, _ = sup_oracle(d, RiskSpec(0.5, 2.0), 400)
        assert abs(val - evar(d, RiskSpec(0.5, 2.0)).value) <= 5e-3

    def test_interior_negative_order_agreement_with_scalar_route(self):
        d = from_samples([0.0, 1.0], weights=[0.9, 0.1])
        val, _ = sup_oracle(d, RiskSpec(0.5, -1.0), 400)
        assert abs(val - evar(d, RiskSpec(0.5, -1.0)).value) <= 5e-3

    def test_weak_duality_across_regimes(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            d = rand_dist(rng, 3)
            for p in (1.5, 3.0, -2.0):
                spec = RiskSpec(0.25, p)
                val, z = sup_oracle(d, spec, 150)
                assert val <= evar(d, spec).value + 1e-9
                assert pair(d, z.weights) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("p", [1.001, 1.0001])
    def test_orders_next_to_one(self, p):
        # p' = 1001 and 10001: beta^(p' - 1) and P^(1 - p') overflowed, and
        # the oracle returned the mean 1.1 (p 1.001) or raised (p 1.0001)
        d = from_samples([0.0, 1.0, 4.0], weights=[0.5, 0.3, 0.2])
        spec = RiskSpec(0.5, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, z = sup_oracle(d, spec, 200)
        risk = evar(d, spec).value
        assert val <= risk
        assert risk - val <= 1e-3
        assert pair(d, z.weights) == pytest.approx(val, abs=1e-12)

    def test_atom_cap_and_resolution_floor(self):
        d7 = from_samples(range(7))
        with pytest.raises(ValueError):
            sup_oracle(d7, RiskSpec(0.5, 2.0), 100)
        d2 = from_samples([0, 1])
        with pytest.raises(ValueError):
            sup_oracle(d2, RiskSpec(0.5, 2.0), 9)
        # 8.4e12 grid rows: refused before anything is allocated
        with pytest.raises(ValueError, match="combinatorial blow-up"):
            sup_oracle(from_samples(range(6)), RiskSpec(0.5, 2.0), 1000)

    def test_resolution_must_be_an_integer(self):
        d = from_samples([0.0, 1.0, 3.0], weights=[0.5, 0.3, 0.2])
        spec = RiskSpec(0.5, 2.0)
        for bad in (100.0, "100"):
            with pytest.raises(ValueError, match="resolution must be an integer"):
                sup_oracle(d, spec, bad)
        val, z = sup_oracle(d, spec, np.int64(100))
        ref_val, ref_z = sup_oracle(d, spec, 100)
        assert val == ref_val
        assert z.weights.tobytes() == ref_z.weights.tobytes()

    def test_grid_cache_is_bounded_and_reused(self):
        d = from_samples([0.0, 1.0, 3.0])
        spec = RiskSpec(0.5, 2.0)
        maxsize = _lattice.cache_info().maxsize
        assert _block_boxes.cache_info().maxsize == maxsize
        for resolution in range(10, 10 + maxsize + 4):
            sup_oracle(d, spec, resolution)
            assert _lattice.cache_info().currsize <= maxsize
            assert _block_boxes.cache_info().currsize <= maxsize
        before, boxes_before = _lattice.cache_info(), _block_boxes.cache_info()
        sup_oracle(d, spec, 10 + maxsize + 3)
        # no miss: the grid's own entries are reused, and so are the 3-atom steps'
        for cache, was in ((_lattice, before), (_block_boxes, boxes_before)):
            assert cache.cache_info().hits == was.hits + 2
            assert cache.cache_info().misses == was.misses
        boxes = _block_boxes(3, 10 + maxsize + 3, 10 + maxsize + 3)
        assert not boxes.flags.writeable
        with pytest.raises(ValueError):
            boxes[0, 0, 0] = 1

    @staticmethod
    def _bound_cases():
        """Seeded 2-6 atom draws with negative values, offsets up to 1e12 and
        spreads down to 1e-6, each with an order, a resolution and the lattices
        ``sup_oracle`` scans: the grid, then the refinement steps around
        the grid's winner and around grid points on the simplex's faces."""
        rng = np.random.default_rng(80)
        resolution = {2: 400, 3: 1000, 4: 80, 5: 20, 6: 10}
        for n in range(2, 7):
            drawn = 0
            while drawn < 4:
                offset = float(rng.choice([0.0, -7.0, 1e3, -1e6, 1e12]))
                spread = float(rng.choice([1e-6, 1e-3, 1.0, 1e3]))
                d = from_samples(offset + spread * rng.uniform(-1.0, 1.0, n),
                                 rng.dirichlet(np.full(n, 2.0)) + 1e-3)
                if d.n_atoms < n:  # the spread is below the offset's float spacing
                    continue
                drawn += 1
                spec = RiskSpec(float(rng.uniform(0.2, 0.8)),
                                float(rng.choice([2.0, 10.0, -1.0, math.inf])))
                r, k = resolution[n], _REACH[n]
                yield d, (n, r, r), r, 0, None
                log_beta, pprime = spec.budget()
                best = _scan(d, pprime, log_beta, (expectation(d), d.probs.copy()),
                             (n, r, r), r)
                grid = _lattice(n, r, r)
                grid = grid[grid.min(axis=1) == 0]
                faces = grid[rng.integers(0, grid.shape[0], 2)] / r
                for origin in (best[1], *faces):
                    yield d, (n, n * k, 2 * k), 20.0 * r, k, origin

    def test_no_skipped_block_holds_a_row_above_the_best(self):
        # the scan skips a block whose bound is not above the best, so every
        # row of a block that stays in the simplex must be at or below its
        # bound in the scan's own float E YZ: one pass over the whole lattice
        # rounds each row's dot product as the scan's aligned copy does
        for d, shape, scale, shift, origin in self._bound_cases():
            rows = _lattice(*shape)
            bound = _block_bounds(d, shape, scale, shift, origin)
            Q = np.divide(rows - shift if shift else rows, scale, dtype=np.float64)
            if origin is not None:
                Q += origin
            obj = np.where((Q >= 0.0).all(axis=1), Q @ d.values, -np.inf)
            top = np.maximum.reduceat(obj, np.arange(0, rows.shape[0], _BLOCK))
            assert top.shape == bound.shape
            assert np.all(top <= bound), (d.values, shape, origin)

    def test_skipped_blocks_are_exactly_those_off_the_simplex(self):
        # a refinement block gets -inf exactly where some column is negative
        # on every row of it, in the scan's own float measures: around the
        # bound cases' centres, and around centres at exact zeros, at 1e-18,
        # and at and one ulp either side of every multiple of the step up to
        # k steps
        cases = [case for case in self._bound_cases() if case[-1] is not None]
        for resolution in (37, 1000):
            scale = 20.0 * resolution
            for n in range(2, 7):
                k = _REACH[n]
                pool = [0.0, 1e-18, 0.5]
                for j in range(k + 1):
                    edge = j / scale
                    pool += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
                d = from_samples(np.arange(float(n)))
                for origin in np.resize(pool, (math.ceil(len(pool) / n), n)):
                    cases.append((d, (n, n * k, 2 * k), scale, k, origin))
        skipped = kept = 0
        for d, shape, scale, shift, origin in cases:
            rows = _lattice(*shape)
            Q = np.divide(rows - shift if shift else rows, scale, dtype=np.float64)
            Q += origin
            starts = np.arange(0, rows.shape[0], _BLOCK)
            off = np.logical_and.reduceat(Q < 0.0, starts, axis=0).any(axis=1)
            bound = _block_bounds(d, shape, scale, shift, origin)
            assert np.array_equal(bound == -np.inf, off), (d.values, shape, origin)
            skipped, kept = skipped + np.count_nonzero(off), kept + np.count_nonzero(~off)
        assert skipped > 0 and kept > 0

    def test_rejects_regimes_without_entropy_budget(self):
        d = from_samples([0, 1])
        for alpha, p in ((0.5, 1.0), (0.5, 0.5), (1.0, 2.0)):
            with pytest.raises(ValueError, match="no entropy budget"):
                sup_oracle(d, RiskSpec(alpha, p), 100)

    @pytest.mark.parametrize("n, resolution", [(2, 400), (3, 1000), (4, 60), (5, 20), (6, 10)])
    def test_matches_the_one_pass_reference(self, n, resolution):
        # the same row wins, so the densities agree to the byte; the value is
        # a dot product BLAS may round differently by the row's position
        rng = np.random.default_rng(60 + n)
        if resolution == 1000:
            assert _lattice(n, resolution, resolution).shape[0] > _CHUNK
        cases = []
        for p in (2.0, 4.0, 10.0, 1.5, -0.5, -1.0, -2.0, math.inf):
            for lo in (0.0, -5.0):
                cases.append((rand_dist(rng, n, lo=lo, hi=5.0),
                              RiskSpec(float(rng.uniform(0.2, 0.8)), p)))
        # integer values and weights: many rows tie on the objective.  The
        # level is drawn, not a round one, so that no row sits exactly on the
        # budget, where the reference's own budget sum may round the other way
        tied = from_samples(rng.choice(np.arange(-3, 4), n, replace=False), rng.integers(1, 4, n))
        cases += [(tied, RiskSpec(float(rng.uniform(0.2, 0.8)), p))
                  for p in (2.0, 4.0, -1.0, -2.0, math.inf)]
        if n in (3, 5):
            # shifted and scaled: every E YZ is near 1e6, and rows differ by
            # less than 1e-2
            for p in (2.0, -2.0, math.inf):
                d = rand_dist(rng, n, lo=-5.0, hi=5.0)
                cases.append((from_samples(1e6 + 1e-3 * d.values, d.probs),
                              RiskSpec(float(rng.uniform(0.2, 0.8)), p)))
        for d, spec in cases:
            val, z = sup_oracle(d, spec, resolution)
            ref_val, ref_q = sup_oracle_reference(d, spec, resolution)
            assert z.weights.tobytes() == (ref_q / d.probs).tobytes()
            assert abs(val - ref_val) <= 2.0 * np.spacing(abs(ref_val))

    def test_matches_the_reference_when_refinement_finds_nothing(self):
        # the top atom is heavy enough to take all the mass: the grid corner
        # attains esssup and no refinement step improves on it
        d = from_samples([0.0, 1.0, 2.0], weights=[0.3, 0.3, 0.4])
        spec = RiskSpec(0.7, 2.0)
        q0 = np.array([0.0, 0.0, 1.0])
        log_beta, pprime = spec.budget()
        assert refine_reference(d, q0, 2.0, pprime, log_beta, 50) == (2.0, q0)
        val, z = sup_oracle(d, spec, 50)
        ref_val, ref_q = sup_oracle_reference(d, spec, 50)
        assert val == ref_val == 2.0
        assert z.weights.tobytes() == (ref_q / d.probs).tobytes()

    def test_refinement_offsets_match_the_meshgrid(self):
        for n in range(2, 7):
            k = _REACH[n]
            lattice = _lattice(n, n * k, 2 * k)
            assert lattice.dtype == np.int8
            assert np.array_equal(lattice - k, refine_offsets_reference(n))
            assert not lattice.flags.writeable
            with pytest.raises(ValueError):
                lattice[0, 0] = 1

    def test_lattice_build_peak_at_4_atoms_and_resolution_400(self):
        # the 87 MB grid test_acceptance c03 scans; built through int64
        # temporaries and a copy per column it peaked at 348 MB
        _lattice.cache_clear()
        tracemalloc.start()
        try:
            grid = _lattice(4, 400, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.nbytes == math.comb(403, 3) * 4 * 2
        assert peak < 250e6

    #: (atoms, resolution) of every grid the oracle tests and the benchmark's
    #: dual_check build; the cache test adds 3 atoms at 10 to 21
    ORACLE_GRIDS = [(1, 50), (2, 400), (3, 50), (3, 100), (3, 150), (3, 200), (3, 400),
                    (3, 1000), (4, 60), (4, 80), (4, 400), (5, 20), (6, 10)]
    ORACLE_GRIDS += [(3, r) for r in range(10, 22)]

    @pytest.mark.parametrize("parts, total", ORACLE_GRIDS)
    def test_lattice_matches_the_plain_python_builder(self, parts, total):
        grid = _lattice(parts, total, total)
        assert grid.shape == (math.comb(total + parts - 1, parts - 1), parts)
        assert is_sorted_lattice(grid, total)
        # the walk took 13 s on the 10.8M rows at (4, 400), which the
        # characterization above checks row by row in well under a second
        if grid.shape[0] <= 1 << 20:
            rows = itertools.chain.from_iterable(lattice_rows(parts, total, total))
            assert np.array_equal(grid.ravel(), np.fromiter(rows, np.int64, count=grid.size))
            assert next(rows, None) is None

    @pytest.mark.parametrize("where", [0, 1000, 5000])
    def test_sorted_lattice_check_rejects_a_swap_a_duplicate_and_a_stray_row(self, where):
        grid = _lattice(3, 100, 100)
        assert is_sorted_lattice(grid, 100)
        swapped, duplicated, stray = grid.copy(), grid.copy(), grid.copy()
        swapped[[where, where + 1]] = swapped[[where + 1, where]]
        duplicated[where + 1] = duplicated[where]
        stray[where] = [101, -1, 0]
        assert not any(is_sorted_lattice(g, 100) for g in (swapped, duplicated, stray))

    @pytest.mark.parametrize("cap, dtype", [(1, np.int8), (127, np.int8), (128, np.int16),
                                            (1000, np.int16), (32767, np.int16),
                                            (32768, np.int32)])
    def test_lattice_takes_the_smallest_signed_type_for_cap(self, cap, dtype):
        lattice = _lattice(2, cap, cap)
        assert lattice.dtype == dtype
        assert lattice[-1].tolist() == [cap, 0]
        assert not lattice.flags.writeable
        with pytest.raises(ValueError):
            lattice[0, 0] = 1

    def test_cached_grids_at_the_benchmark_shapes_fit_in_3_5_mb(self):
        # dual_check's shapes; as int32 they held 7.70e6 bytes
        shapes = ((3, 1000), (4, 80), (5, 20))
        spec = RiskSpec(0.5, 2.0)
        rng = np.random.default_rng(72)
        for n, resolution in shapes:
            sup_oracle(rand_dist(rng, n), spec, resolution)
        warm, boxes_warm = _lattice.cache_info(), _block_boxes.cache_info()
        for n, resolution in shapes:
            sup_oracle(rand_dist(rng, n), spec, resolution)
        assert _lattice.cache_info().misses == warm.misses
        assert _block_boxes.cache_info().misses == boxes_warm.misses
        # with the block boxes of the grids and the refinement steps (37 420 bytes)
        lattices = [(n, r, r) for n, r in shapes]
        steps = [(n, n * _REACH[n], 2 * _REACH[n]) for n, _ in shapes]
        assert (sum(_lattice(*shape).nbytes for shape in lattices)
                + sum(_block_boxes(*shape).nbytes for shape in lattices + steps)) <= 3.5e6

    def test_peak_memory_is_bounded(self):
        # a cold 5-atom call builds its grid and refinement steps; a warm
        # 3-atom call scans a cached 501 501-row grid
        spec = RiskSpec(0.5, 2.0)
        d5 = rand_dist(np.random.default_rng(70), 5)
        d3 = rand_dist(np.random.default_rng(71), 3)
        _lattice.cache_clear()
        sup_oracle(d3, spec, 1000)
        for d, resolution in ((d5, 20), (d3, 1000)):
            tracemalloc.start()
            try:
                sup_oracle(d, spec, resolution)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6

    def test_first_budget_test_takes_one_block(self, monkeypatch):
        # the grid scan starts from E Y, which most rows beat: a first chunk
        # of 16 384 rows sent all of them to the budget test at order -2
        module = importlib.import_module("renyi_risk.duality")
        sizes = []
        feasible = module._feasible_mask

        def counted(Q, *args):
            sizes.append(Q.shape[0])
            return feasible(Q, *args)

        monkeypatch.setattr(module, "_feasible_mask", counted)
        rng = np.random.default_rng(74)
        for p in (2.0, -2.0):
            sizes.clear()
            sup_oracle(rand_dist(rng, 3), RiskSpec(0.5, p), 1000)
            assert 0 < sizes[0] <= _BLOCK


class TestDualNorm:
    def test_constant_density_has_unit_dual_norm(self):
        d = from_samples([0.0, 1.0, 3.0], weights=[0.5, 0.3, 0.2])
        z = Density(d, np.ones(3))
        assert dual_norm(z, 0.5, 2.0) >= 1.0 - 1e-8
        assert dual_norm(z, 0.5, 2.0) <= 1.0 + 1e-12
        assert dual_norm(z, 0.5, -1.0) == pytest.approx(1.0, abs=1e-12)

    def test_random_witness_maximization(self):
        # dual norm equals the best ratio E YZ / risk(Y) over many random Y,
        # with the constructed extremal witness closing the gap
        rng = np.random.default_rng(22)
        d = from_samples([0.0, 1.0, 2.5], weights=[0.5, 0.3, 0.2])
        q = rng.dirichlet(np.ones(3))
        z = Density(d, q / d.probs)
        alpha, p = 0.5, 2.0
        dn = dual_norm(z, alpha, p)

        draws = rng.uniform(0.0, 5.0, size=(100_000, 3))
        risks = evar2_batch(draws, d.probs, alpha)
        pairings = draws @ (d.probs * z.weights)
        best = float(np.max(pairings / risks))

        witness = hb_witness_for(z, alpha, p)
        dw = from_samples(np.abs(witness), d.probs)
        ratio_w = pair_with(witness, d, z) / evar(dw, RiskSpec(alpha, p)).value
        best = max(best, ratio_w)
        assert dn == pytest.approx(best, rel=1e-3)

    def test_power_norm_sandwich(self):
        rng = np.random.default_rng(23)
        d = rand_dist(rng, 4)
        for p in (1.5, 2.0, 3.0):
            pp = conjugate(p)
            for a in (0.25, 0.6):
                lower_c, _ = norm_equivalence_bounds(a, p)
                q = rng.dirichlet(np.ones(4))
                z = Density(d, q / d.probs)
                znorm = float(np.dot(d.probs, z.weights ** pp)) ** (1.0 / pp)
                dn = dual_norm(z, a, p)
                assert (1.0 - a) ** ((pp - 1.0) / pp) * znorm <= dn + 1e-8
                assert dn <= znorm / lower_c + 1e-8

    def test_raw_functional_is_positively_homogeneous(self):
        rng = np.random.default_rng(24)
        d = rand_dist(rng, 4)
        w = rng.uniform(0.1, 3.0, 4)
        for p in (2.0, -1.0):
            base = dual_norm_raw(d, w, 0.5, p)
            for lam in (0.25, 2.0, 7.5):
                assert dual_norm_raw(d, lam * w, 0.5, p) == pytest.approx(lam * base, rel=1e-8)

    def test_scale_of_the_functional_near_order_one(self):
        # at p' = 1001 a witness scale of max |Z|^(p'-1) overflowed
        d = from_samples([0.0, 1.0, 2.0], [0.4, 0.4, 0.2])
        w = np.array([0.5, 0.5, 3.0])
        assert dual_norm_raw(d, w, 0.5, 1.001) == pytest.approx(
            3.0 * dual_norm_raw(d, w / 3.0, 0.5, 1.001), rel=1e-12)

    @pytest.mark.parametrize("p", [1e100, -1e100])
    def test_orders_whose_conjugate_rounds_to_one(self, p):
        # p' = 1 exactly: the entropy budget is the Kullback-Leibler one, and
        # the value is the limit of large finite orders
        d = from_samples([0.0, 1.0, 2.0], [0.4, 0.4, 0.2])
        z = Density(d, np.array([0.5, 0.5, 3.0]))
        value = dual_norm(z, 0.1, p)
        assert value > 1.4
        assert value == pytest.approx(dual_norm(z, 0.1, math.copysign(1e8, p)), rel=1e-7)
        y = hb_witness_for(z, 0.1, p)
        risk = evar(from_samples(np.abs(y), d.probs), RiskSpec(0.1, p)).value
        assert pair_with(y, d, z) == pytest.approx(risk * value, rel=1e-12)

    @pytest.mark.parametrize("p", [1e12, -1e12])
    def test_orders_next_to_the_shannon_limit(self, p):
        # p' = 1 -+ 1e-12: the entropy keeps its precision near order 1, where
        # log E Z^p' / (p' - 1) left the value 8.1e-5 off its p' = 1 limit
        d = from_samples([0.0, 1.0, 2.0], [0.3, 0.3, 0.4])
        z = np.array([1.0, 2.0, 40.0])
        assert dual_norm_raw(d, z, 0.1, p) == pytest.approx(
            dual_norm_raw(d, z, 0.1, math.copysign(1e100, p)), rel=1e-12)

    @pytest.mark.parametrize("p", [1e4, -1e4])
    def test_budget_below_the_rounding_of_the_constant_density(self, p):
        # log beta = 1e-15 lies below the rounding of the constant density's
        # entropy at p' = 1 +- 1e-4, so the top of the level bracket must be
        # taken as exact; as the level reaches it the value nears max |Z|
        d = from_samples([0.0, 1.0, 2.0], [0.3, 0.3, 0.4])
        value = dual_norm_raw(d, np.array([1.0, 2.0, 40.0]), 1e-15, p)
        assert 40.0 * (1.0 - 1e-6) <= value <= 40.0

    def test_invalid_orders_rejected(self):
        # order +inf has the Shannon budget (TestShannonOrder)
        d = from_samples([0, 1])
        z = Density(d, np.ones(2))
        for p in (1.0, 0.5):
            with pytest.raises(ValueError, match="no entropy budget"):
                dual_norm(z, 0.5, p)

    def test_functional_preconditions(self):
        d = from_samples([0, 1])
        with pytest.raises(ValueError, match="weights must match the distribution's atoms"):
            dual_norm_raw(d, np.ones(3), 0.5, 2.0)
        # the zero functional has dual norm 0 at both signs of the order
        for p in (2.0, -2.0):
            assert dual_norm_raw(d, np.zeros(2), 0.5, p) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [2.0, math.inf, -2.0])
    def test_non_finite_weights_rejected(self, bad, p):
        # as Density rejects them; a nan or an infinite |Z| would otherwise
        # come back as a nan or infinite dual norm
        d = from_samples([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="weights must be finite"):
            dual_norm_raw(d, [1.0, bad, 2.0], 0.5, p)


#: Values of ``dual_norm_raw`` at alpha 0.3 on the atoms [0, 1, 2.5, 4, 7]
#: with probabilities [0.3, 0.25, 0.2, 0.15, 0.1], as computed by the former
#: implementation (a 1001-point scan refined by golden section).
SCAN_VALUES = [
    ([0.1, 0.3, 0.2, 4.0, 1.5], {1.5: 1.8066790196071658, 2.0: 1.5701077045733114,
                                 4.0: 1.3517542818454897, 10.0: 1.2632982365384597,
                                 -0.5: 0.895, -1.0: 0.9610182044372252,
                                 -2.0: 1.0533748211910452, -5.0: 1.1379902665554544}),
    ([3.0, 0.05, 0.4, 0.1, 1.0], {1.5: 1.6342719282327014, 2.0: 1.5009091660529927,
                                  4.0: 1.36865824894927, 10.0: 1.3128143218288821,
                                  -0.5: 1.1075, -1.0: 1.131839259837923,
                                  -2.0: 1.1802929800736557, -5.0: 1.2320419504284739}),
    ([0.02, 0.5, 2.5, 0.3, 0.7], {1.5: 1.220357228269253, 2.0: 1.0825756949558403,
                                  4.0: 0.9472980159240616, 10.0: 0.8918065337069419,
                                  -0.5: 0.746, -1.0: 0.7556172379602479,
                                  -2.0: 0.78328116563041, -5.0: 0.8207139256498714}),
    ([1.2, 0.9, 0.1, 0.05, 4.5], {1.5: 1.8187846296391654, 2.0: 1.518277465918514,
                                  4.0: 1.269018737147658, 10.0: 1.1956808626663407,
                                  -0.5: 1.0625, -1.0: 1.0625,
                                  -2.0: 1.0815018733595563, -5.0: 1.1184924458963372}),
]

MIX_ORDERS = (1.5, 2.0, 4.0, 10.0, -0.5, -1.0, -2.0, -5.0)


class TestDualNormSolve:
    """One water-level solve, checked against the best ratio of the extremal
    pairings on a dense grid (``oracles.dual_norm_grid``), an independent
    formulation."""

    @pytest.mark.parametrize("weights, expected", [
        ([0.0, 0.0, 1.0 / 0.3], 1.0435607626104002),
        ([2.5, 0.0, 0.0], 1.0102051443364382),
    ])
    def test_zero_weight_reproducers(self, weights, expected):
        # the pairing can peak beyond the largest finite W once Z vanishes on
        # some atoms, where a search stopping there returned E|Z| = 1
        d = from_samples([1.0, 2.0, 3.0], [0.4, 0.3, 0.3])
        z = Density(d, np.array(weights))
        value = dual_norm(z, 0.5, -1.0)
        assert value == pytest.approx(expected, rel=1e-12)
        y = hb_witness_for(z, 0.5, -1.0)
        risk = evar(from_samples(np.abs(y), d.probs), RiskSpec(0.5, -1.0)).value
        assert value == pytest.approx(pair_with(y, d, z) / risk, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 10.0, -0.5, -2.0, -5.0])
    def test_floored_entropy_is_nonincreasing_in_the_level(self, p):
        # the fact the solve rests on: raising the floor u of x = |Z| / max |Z|
        # gives a density majorized by the last one, so its order-p' entropy
        # cannot rise; below min x the density does not change
        rng = np.random.default_rng(45)
        pprime = conjugate(p)
        levels = np.linspace(0.0, 1.0, 1001)
        for case in range(8):
            n = int(rng.integers(2, 30))
            d = rand_dist(rng, n)
            x = rng.lognormal(sigma=1.5, size=n)
            if case % 2:
                x[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 0.0
            x /= x.max()
            h = np.array([renyi_entropy(Density(d, v / np.dot(d.probs, v)), pprime)
                          for v in np.maximum(x, levels[:, None])])
            assert np.all(np.diff(h) <= 1e-13 * (1.0 + np.abs(h[1:])))
            assert np.all(h[levels <= x.min()] == h[0])
            assert abs(h[-1]) <= 1e-13

    def test_zero_weights_never_below_a_grid_ratio(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            d = rand_dist(rng, n)
            w = rng.dirichlet(np.ones(n)) / d.probs
            w[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 0.0
            z = Density(d, w / np.dot(d.probs, w))
            alpha = float(rng.choice([0.1, 0.5, 0.9]))
            for p in (-0.5, -1.0, -2.0, -5.0):
                best = dual_norm_grid(d, z.weights, alpha, p)
                assert dual_norm(z, alpha, p) >= best * (1.0 - 1e-12)

    def test_matches_the_grid_on_positive_weights(self):
        # flat and skewed Dirichlet densities and attaining densities on 3-40
        # atoms; a second local maximum of the ratio would show up here
        rng = np.random.default_rng(42)
        checked = 0
        for case in range(18):
            n = int(rng.integers(3, 41))
            d = rand_dist(rng, n)
            alpha = float(rng.choice([0.1, 0.5, 0.9]))
            for p in MIX_ORDERS:
                if case % 3 == 2:
                    w = evar(d, RiskSpec(alpha, p)).density.weights
                    if not np.all(w > 0.0):
                        continue
                else:
                    w = rng.dirichlet(np.full(n, 1.0 if case % 3 else 0.3)) / d.probs
                checked += 1
                ref = dual_norm_grid(d, w, alpha, p)
                signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
                assert dual_norm_raw(d, 3.0 * signs * w, alpha, p) == pytest.approx(3.0 * ref,
                                                                                   rel=1e-10)
                z = Density(d, w / np.dot(d.probs, w))
                value = dual_norm(z, alpha, p)
                assert value == pytest.approx(ref / np.dot(d.probs, w), rel=1e-10)
                # no grid ratio is above the value, even where the ratio is
                # flat to 1e-11 (attaining densities)
                assert value >= ref / np.dot(d.probs, w) * (1.0 - 1e-12)
        assert checked >= 100

    @pytest.mark.parametrize("p", [2.0, 10.0, math.inf, -0.5, -2.0, 1e12, 1e14, -1e12])
    def test_slack_slope_matches_central_differences(self, p, monkeypatch):
        # the slope each slack evaluation returns for its Newton steps,
        # against central differences of its value away from the atoms of
        # x = |Z| / max |Z|, where P(x < u) jumps.  Next to the Shannon
        # order, 1/E v - u^(p'-1)/E v^p' cancelled to eps / |p' - 1|
        module = importlib.import_module("renyi_risk.duality")
        solve, slacks = module.find_root, []

        def recorded(g, lo, hi, tol):
            slacks.append(g)
            return solve(g, lo, hi, tol)

        monkeypatch.setattr(module, "find_root", recorded)
        rng = np.random.default_rng(46)
        checked = 0
        for _ in range(6):
            n = int(rng.integers(3, 20))
            d = rand_dist(rng, n)
            w = rng.lognormal(sigma=1.5, size=n)
            slacks.clear()
            dual_norm_raw(d, w, 0.1, p)  # a small budget, which few |Z| / E|Z| meet
            if not slacks:  # the value is E|Z|, with no solve
                continue
            x, h = w / w.max(), 1e-6
            for u in np.linspace(x.min(), 1.0, 13)[1:-1].tolist():
                if np.min(np.abs(x - u)) < 1e-3:
                    continue
                slope = slacks[0](u)[1]
                central = (slacks[0](u + h)[0] - slacks[0](u - h)[0]) / (2.0 * h)
                assert slope == pytest.approx(central, rel=1e-6, abs=1e-9), (n, u)
                checked += 1
        assert checked >= 20

    def test_root_in_rounding_noise_takes_few_evaluations(self, monkeypatch):
        # the attaining density of 1e4 lognormal atoms meets the budget so
        # closely that its slack at min |Z| rounds to a negative value, so
        # the root lies in rounding noise at the low end of the bracket.
        # The interpolating steps took 64 slack evaluations at orders 2 and
        # 10; Newton steps from the end with the smaller slack take 20 and
        # 15 (the bounds leave 2).  At inf and -2, 13 and 4.
        module = importlib.import_module("renyi_risk.duality")
        solve, evaluations = module.find_root, []

        def counted(g, lo, hi, tol):
            root = solve(g, lo, hi, tol)
            evaluations.append(root[1])
            return root

        monkeypatch.setattr(module, "find_root", counted)
        d = from_samples(np.random.default_rng(0).lognormal(size=10_000))
        for p, bound in ((2.0, 22), (10.0, 17)):
            evaluations.clear()
            z = evar(d, RiskSpec(0.5, p)).density
            assert dual_norm(z, 0.5, p) == pytest.approx(1.0, abs=1e-13)
            assert len(evaluations) == 1 and evaluations[0] <= bound, p

    def test_orders_next_to_the_shannon_limit_take_few_evaluations(self, monkeypatch):
        # Dirichlet(1) densities on lognormal atoms at a small budget.  The
        # slope from the difference of two powers lost eps / |p' - 1| next to
        # p' = 1: its Newton steps failed and the projection forced
        # midpoints, up to 64 evaluations at 1e14 (8 of these 30 above 25)
        module = importlib.import_module("renyi_risk.duality")
        solve, evaluations = module.find_root, []

        def counted(g, lo, hi, tol):
            root = solve(g, lo, hi, tol)
            evaluations.append(root[1])
            return root

        monkeypatch.setattr(module, "find_root", counted)
        rng = np.random.default_rng(2031)
        densities = []
        for _ in range(30):
            n = int(rng.integers(2, 40))
            y = rng.lognormal(size=n)
            d = from_samples(y, rng.dirichlet(np.ones(n)))
            w = rng.dirichlet(np.ones(d.n_atoms)) / d.probs
            densities.append(Density(d, w / np.dot(d.probs, w)))
        for p in (1e12, 1e14, -1e12):
            evaluations.clear()
            for z in densities:
                dual_norm(z, 0.1, p)
            assert len(evaluations) >= 20 and max(evaluations) <= 25, (p, evaluations)

    @pytest.mark.parametrize("p", [2.0, 10.0, math.inf, -2.0])
    def test_one_entropy_per_slack_point(self, p, monkeypatch):
        # the pre-test's slack at min |Z| is find_root's first point, handed
        # over instead of evaluated again: one entropy for each point below 1
        # (at u >= 1 the slack is log beta, with no entropy)
        module = importlib.import_module("renyi_risk.duality")
        solve, entropy = module.find_root, module._entropy
        points, entropies = [], []

        def counted(g, lo, hi, tol):
            def recorded(u):
                points.append(u)
                return g(u)
            root = solve(recorded, lo, hi, tol)
            assert root[1] == len(points)
            return root

        def entropy_counted(p, w, q):
            entropies.append(q)
            return entropy(p, w, q)

        monkeypatch.setattr(module, "find_root", counted)
        monkeypatch.setattr(module, "_entropy", entropy_counted)
        rng = np.random.default_rng(47)
        solved = 0
        for _ in range(8):
            n = int(rng.integers(3, 20))
            d = rand_dist(rng, n)
            w = rng.lognormal(sigma=1.5, size=n)
            points.clear()
            entropies.clear()
            dual_norm_raw(d, w, 0.1, p)  # a small budget, which few |Z| / E|Z| meet
            if points:
                solved += 1
                assert len(entropies) == sum(u < 1.0 for u in points), (n, points)
            else:  # the value is E|Z|, from the pre-test alone
                assert len(entropies) == 1
        assert solved >= 4

    @pytest.mark.parametrize("p", [2.0, math.inf, -2.0])
    def test_no_density_per_slack_point(self, p, monkeypatch):
        # v / E v is a density by construction, so the slack takes its
        # entropy without building, checking and copying a Density
        module = importlib.import_module("renyi_risk.duality")
        solve, evaluations, built = module.find_root, [], []
        post_init = Density.__post_init__

        def counted(g, lo, hi, tol):
            root = solve(g, lo, hi, tol)
            evaluations.append(root[1])
            return root

        def counted_post_init(z):
            built.append(None)
            post_init(z)

        d = from_samples(np.random.default_rng(11).lognormal(size=50))
        z = evar(d, RiskSpec(0.95, p)).density
        monkeypatch.setattr(module, "find_root", counted)
        monkeypatch.setattr(Density, "__post_init__", counted_post_init)
        dual_norm(z, 0.5, p)  # its entropy is about log 20, above the budget log 2
        assert len(evaluations) == 1 and evaluations[0] > 1
        assert built == []

    @pytest.mark.parametrize("weights, values", SCAN_VALUES)
    def test_matches_the_scan_it_replaced(self, weights, values):
        d = from_samples([0.0, 1.0, 2.5, 4.0, 7.0], [0.3, 0.25, 0.2, 0.15, 0.1])
        for p, expected in values.items():
            assert dual_norm_raw(d, np.array(weights), 0.3, p) == pytest.approx(expected,
                                                                                 rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, 10.0, -2.0])
    def test_attaining_density_at_2e5_atoms(self, p):
        rng = np.random.default_rng(43)
        d = from_samples(rng.lognormal(size=200_000))
        z = evar(d, RiskSpec(0.95, p)).density
        assert dual_norm(z, 0.95, p) == pytest.approx(1.0, abs=1e-9)

    def test_memory_is_linear_in_the_atoms(self):
        # skewed enough that both orders solve rather than return E|Z|
        rng = np.random.default_rng(44)
        d = from_samples(rng.lognormal(size=30_000))
        w = rng.lognormal(sigma=1.5, size=30_000) / d.probs
        z = Density(d, w / np.dot(d.probs, w))
        for p in (2.0, -2.0):
            tracemalloc.start()
            try:
                dual_norm(z, 0.5, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20e6


def pair_with(values, d, z):
    return float(np.dot(d.probs * z.weights, values))


class TestHahnBanachWitnesses:
    def test_density_witness_equality_high_order(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            d = rand_dist(rng, 4, lo=0.0, max_top=0.4)
            spec = RiskSpec(0.5, 2.0)
            zprime = hb_density_for(d, spec)
            lhs = float(np.dot(d.probs * d.values, zprime))
            rhs = evar(d, spec).value * dual_norm_raw(d, zprime, 0.5, 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_density_witness_equality_negative_order(self):
        d = from_samples([0.0, 1.0], weights=[0.9, 0.1])
        spec = RiskSpec(0.5, -1.0)
        zprime = hb_density_for(d, spec)
        lhs = float(np.dot(d.probs * d.values, zprime))
        rhs = evar(d, spec).value * dual_norm_raw(d, zprime, 0.5, -1.0)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_constant_variable_is_degenerate(self):
        d = from_samples([3.0])
        assert hb_density_for(d, RiskSpec(0.5, 2.0)).tolist() == [1.0]

    def test_boundary_branch_pairs_with_the_top_atom_indicator(self):
        # beta P(|Y| = esssup |Y|) >= 1: the witness is sign(Y) times the
        # normalized top-atom indicator of |Y|, and it attains the pairing
        # equality to rounding, whatever the signs
        rng = np.random.default_rng(19)
        cases = 0
        for _ in range(40):
            n = int(rng.integers(1, 8))
            values = rng.choice([-1.0, 1.0], n) * rng.integers(0, 4, n) * 10.0 ** rng.uniform(-3, 3)
            d = from_samples(values, rng.dirichlet(np.ones(n)))
            dabs = from_samples(np.abs(d.values), d.probs)
            top = np.abs(d.values) == esssup(dabs)
            alpha = float(rng.uniform(1.0 - math.fsum(d.probs[top].tolist()), 1.0))
            indicator = np.where(d.values < 0.0, -1.0, 1.0) * top / float(dabs.probs[-1])
            for p in (1.5, 2.0, 10.0, 1e6, -0.5, -2.0, -1e6):
                spec = RiskSpec(alpha, p)
                zprime = hb_density_for(d, spec)
                assert zprime.tolist() == indicator.tolist()
                lhs = float(np.dot(d.probs * d.values, zprime))
                rhs = evar(dabs, spec).value * dual_norm_raw(d, zprime, alpha, p)
                assert abs(lhs - rhs) <= 1e-15 * abs(rhs), (d, alpha, p)
                cases += 1
        assert cases == 280

    @pytest.mark.parametrize("alpha, p", [(0.0, 2.0), (1.0, -2.0), (0.5, 0.5), (0.5, 1.0)])
    def test_requests_outside_the_dual_norm_domain_rejected(self, alpha, p):
        # the domain of dual_norm, RiskSpec.budget(); order +inf is inside it
        with pytest.raises(ValueError, match="no entropy budget"):
            hb_density_for(from_samples([0.0, 1.0]), RiskSpec(alpha, p))

    def test_witness_for_constant_density(self):
        d = from_samples([0.0, 1.0, 2.0])
        z = Density(d, np.ones(3))
        y = hb_witness_for(z, 0.5, 2.0)
        assert np.allclose(y, y[0])
        lhs = pair_with(y, d, z)
        dy = from_samples(np.abs(y), d.probs)
        rhs = evar(dy, RiskSpec(0.5, 2.0)).value * dual_norm(z, 0.5, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_witness_equality_high_order(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            d = rand_dist(rng, 3)
            q = rng.dirichlet(np.ones(3) * 2.0)
            z = Density(d, q / d.probs)
            y = hb_witness_for(z, 0.5, 2.0)
            lhs = pair_with(y, d, z)
            dy = from_samples(np.abs(y), d.probs)
            rhs = evar(dy, RiskSpec(0.5, 2.0)).value * dual_norm(z, 0.5, 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_witness_where_the_dual_norm_is_the_mean(self):
        # |Z| / E|Z| meets the order -1 budget, so the dual norm is E|Z| and
        # the constant attains it; there used to be no witness here
        d = from_samples([1.0, 2.0, 3.0], [0.4, 0.3, 0.3])
        z = Density(d, np.array([0.9, 1.0, 1.1333333333333333]))
        y = hb_witness_for(z, 0.5, -1.0)
        assert np.all(y == y[0]) and y[0] > 0.0
        value = dual_norm(z, 0.5, -1.0)
        assert value == pytest.approx(float(np.dot(d.probs, z.weights)), rel=1e-15)
        risk = evar(from_samples(np.abs(y), d.probs), RiskSpec(0.5, -1.0)).value
        assert pair_with(y, d, z) == pytest.approx(risk * value, rel=1e-12)

    def test_witness_negative_order_finite_or_signalled(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            d = rand_dist(rng, 3)
            q = rng.dirichlet(np.ones(3) * 0.8)
            z = Density(d, q / d.probs)
            y = hb_witness_for(z, 0.5, -1.0)
            lhs = pair_with(y, d, z)
            dy = from_samples(np.abs(y), d.probs)
            rhs = evar(dy, RiskSpec(0.5, -1.0)).value * dual_norm(z, 0.5, -1.0)
            assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.fixture(scope="module")
def signed_lognormal_cases():
    """300 seeded (distribution, level) cases: 1-39 signed lognormal atoms,
    Dirichlet(0.5) probabilities, the levels 0.1, 0.5, 0.9 and 0.99 in turn."""
    rng = np.random.default_rng(3)
    cases = []
    for k in range(300):
        n = int(rng.integers(1, 40))
        y = rng.choice([-1.0, 1.0], n) * rng.lognormal(size=n)
        d = from_samples(y, rng.dirichlet(np.full(n, 0.5)))
        cases.append((d, (0.1, 0.5, 0.9, 0.99)[k % 4]))
    return cases


class TestShannonOrder:
    """p = +inf, conjugate order 1: the dual norms and witnesses take the
    Shannon budget like every other order with one."""

    def test_attaining_density_has_unit_dual_norm(self, signed_lognormal_cases):
        for d, alpha in signed_lognormal_cases:
            z = evar(d, RiskSpec(alpha, math.inf)).density
            assert abs(dual_norm(z, alpha, math.inf) - 1.0) <= 1e-12, (d, alpha)

    def test_witness_pairings(self, signed_lognormal_cases):
        for d, alpha in signed_lognormal_cases:
            spec = RiskSpec(alpha, math.inf)
            zprime = hb_density_for(d, spec)
            risk = evar(from_samples(np.abs(d.values), d.probs), spec).value
            rhs = risk * dual_norm_raw(d, zprime, alpha, math.inf)
            assert abs(pair(d, zprime) - rhs) <= 1e-12 * abs(rhs), (d, alpha)
            z = evar(d, spec).density
            y = hb_witness_for(z, alpha, math.inf)
            risk = evar(from_samples(np.abs(y), d.probs), spec).value
            rhs = risk * dual_norm(z, alpha, math.inf)
            assert abs(pair_with(y, d, z) - rhs) <= 1e-12 * abs(rhs), (d, alpha)

    @pytest.mark.parametrize("p", [1e12, -1e12])
    def test_orders_next_to_inf_meet_its_dual_norm(self, signed_lognormal_cases, p):
        for d, alpha in signed_lognormal_cases:
            z = evar(d, RiskSpec(alpha, math.inf)).density
            limit = dual_norm(z, alpha, math.inf)
            assert abs(dual_norm(z, alpha, p) - limit) <= 1e-11, (d, alpha)


class TestAlternativeDual:
    def test_unit_ball_densities_never_beat_the_value(self):
        # weak duality: random densities inside the unit dual ball pair with Y
        # to at most the value, and the attaining density lies in the ball
        rng = np.random.default_rng(28)
        for _ in range(4):
            d = rand_dist(rng, 4)
            for p in (2.0, -1.5):
                r = evar(d, RiskSpec(0.5, p))
                assert dual_norm(r.density, 0.5, p) <= 1.0 + 1e-6
                trials = np.random.default_rng(int(rng.integers(1 << 16)))
                for _ in range(15):
                    z = Density(d, trials.dirichlet(np.ones(4)) / d.probs)
                    if dual_norm(z, 0.5, p) <= 1.0 + 1e-9:
                        assert float(np.dot(d.probs * d.values, z.weights)) <= r.value + 1e-6

    def test_attaining_density_sits_in_the_unit_ball(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            d = rand_dist(rng, 4, max_top=0.4)
            for p in (1.5, 3.0, -1.0, -2.0):
                r = evar(d, RiskSpec(0.5, p))
                assert dual_norm(r.density, 0.5, p) <= 1.0 + 1e-6


class TestKusuoka:
    def test_constant_density_gives_point_mass_at_zero(self):
        d = from_samples([0.0, 1.0, 4.0], weights=[0.5, 0.3, 0.2])
        m = kusuoka(d, RiskSpec(0.0, 2.0))
        assert m.atoms == [(0.0, 1.0)]
        assert kusuoka_evaluate(m, d) == pytest.approx(expectation(d), abs=1e-12)

    def test_tail_mean_case_recovers_point_mass_at_alpha(self):
        d = from_samples([0.0, 1.0])  # alpha at the atom boundary
        m = kusuoka(d, RiskSpec(0.5, 1.0))
        assert len(m.atoms) == 1
        level, mass = m.atoms[0]
        assert level == pytest.approx(0.5, abs=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_identity_for_tail_mean_with_split_atom(self):
        d = from_samples([0.0, 1.0, 4.0], weights=[0.6, 0.2, 0.2])
        spec = RiskSpec(0.5, 1.0)
        m = kusuoka(d, spec)
        assert kusuoka_evaluate(m, d) == pytest.approx(evar(d, spec).value, abs=1e-8)

    def test_identity_across_orders(self):
        rng = np.random.default_rng(30)
        for _ in range(6):
            d = rand_dist(rng, 4)
            for p in (2.0, 3.0, -1.0, math.inf):
                spec = RiskSpec(0.5, p)
                m = kusuoka(d, spec)
                assert kusuoka_evaluate(m, d) == pytest.approx(evar(d, spec).value, abs=1e-8)

    def test_degenerate_indicator_density_still_valid(self):
        d = from_samples([0.0, 1.0], weights=[0.3, 0.7])
        spec = RiskSpec(0.5, -1.0)
        m = kusuoka(d, spec)
        assert kusuoka_evaluate(m, d) == pytest.approx(esssup(d), abs=1e-12)

    def test_measure_reproduces_distortion_and_budget(self):
        rng = np.random.default_rng(31)
        d = rand_dist(rng, 5, max_top=0.4)
        a, p = 0.5, 2.0
        m = kusuoka(d, RiskSpec(a, p))
        # sigma(u) = sum of mass/(1-level) over levels <= u
        for u, h in zip(m.breakpoints, m.heights):
            rebuilt = sum(mass / (1.0 - lv) for lv, mass in m.atoms if lv <= u)
            assert rebuilt == pytest.approx(h, abs=1e-10)
        pp = conjugate(p)
        seg = np.append(m.breakpoints, 1.0)
        integral = float(np.dot(np.diff(seg), m.heights ** pp))
        assert integral <= (1.0 / (1.0 - a)) ** (pp - 1.0) + 1e-8

    def test_measure_matches_the_fsum_reference(self):
        rng = np.random.default_rng(32)
        y = rng.lognormal(size=1500)
        for d in (from_samples(y), from_samples(y, rng.dirichlet(np.ones(1500)))):
            for a, p in ((0.5, -2.0), (0.5, 2.0), (0.95, 10.0), (0.95, math.inf), (0.9, 1.0)):
                m = kusuoka(d, RiskSpec(a, p))
                levels, masses, breakpoints, heights = kusuoka_reference(
                    evar(d, RiskSpec(a, p)).density.weights, d.probs)
                np.testing.assert_array_equal(m.heights, heights)
                np.testing.assert_allclose(m.breakpoints, breakpoints, rtol=0.0, atol=1e-14)
                np.testing.assert_allclose(m.levels, levels, rtol=0.0, atol=1e-14)
                np.testing.assert_allclose(m.masses, masses, rtol=1e-12, atol=0.0)
                assert abs(math.fsum(m.masses.tolist()) - 1.0) <= 1e-12

    def test_total_mass_is_one_at_200k_atoms(self):
        # a forward running sum missed 1 by up to 4.6e-7 here
        d = from_samples(np.random.default_rng(1).lognormal(size=200_000))
        for a, p in ((0.5, -2.0), (0.95, 10.0), (0.95, math.inf)):
            m = kusuoka(d, RiskSpec(a, p))
            assert abs(math.fsum(m.masses.tolist()) - 1.0) <= 1e-12
            assert np.all(np.diff(m.breakpoints) > 0.0)

    def test_no_density_regimes_rejected(self):
        d = from_samples([0.0, 1.0])
        with pytest.raises(ValueError):
            kusuoka(d, RiskSpec(1.0, 2.0))
        with pytest.raises(ValueError):
            kusuoka(d, RiskSpec(0.5, 0.5))

    def test_hand_built_point_masses_evaluate_to_tail_means(self):
        d = from_samples([0.0, 1.0, 4.0], weights=[0.6, 0.2, 0.2])
        at_zero = KusuokaMeasure(np.array([1.0]), np.array([1.0]))
        assert kusuoka_evaluate(at_zero, d) == pytest.approx(expectation(d), abs=1e-12)
        at_alpha = KusuokaMeasure(np.array([1.0, 0.75]), np.array([0.0, 4.0 / 3.0]))
        tail_mean = evar(d, RiskSpec(0.25, 1.0)).value
        assert kusuoka_evaluate(at_alpha, d) == pytest.approx(tail_mean, abs=1e-12)

    def test_measure_invariants_enforced(self):
        with pytest.raises(ValueError, match="pair up"):  # unequal lengths
            KusuokaMeasure(np.array([1.0, 0.5]), np.array([1.0]))
        with pytest.raises(ValueError, match="pair up"):  # no level at all
            KusuokaMeasure(np.array([]), np.array([]))
        with pytest.raises(ValueError):  # mass not 1
            KusuokaMeasure(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):  # distortion decreasing
            KusuokaMeasure(np.array([1.0, 0.5]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):  # distortion not integrating to 1
            KusuokaMeasure(np.array([1.0, 0.5]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):  # tails not starting at 1
            KusuokaMeasure(np.array([0.5]), np.array([2.0]))
        with pytest.raises(ValueError):  # tails not decreasing strictly
            KusuokaMeasure(np.array([1.0, 0.5, 0.5]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):  # a zero tail
            KusuokaMeasure(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):  # a negative height
            KusuokaMeasure(np.array([1.0, 0.5]), np.array([-1.0, 3.0]))

    #: The top atom's tail, 1e-17, is below the resolution of a level 1 - tau.
    TINY_TAIL = ([0.0, 1.0, 2.0], [0.5, 0.5, 1e-17])

    @pytest.mark.parametrize("p", [1.0, 2.0, -2.0, math.inf])
    def test_tail_below_level_resolution(self, p):
        # orders 2, -2 and inf raised "levels must lie in [0,1)"; at -2 that
        # tail carries mass 0.195, so dropping it would miss the identity
        d = from_samples(*self.TINY_TAIL)
        spec = RiskSpec(0.5, p)
        m = kusuoka(d, spec)
        assert abs(math.fsum(m.masses.tolist()) - 1.0) <= 1e-12
        assert abs(kusuoka_evaluate(m, d) - evar(d, spec).value) <= 1e-12 * 2.0
        if p != 1.0:
            assert m.tails[-1] == 1e-17 and m.levels[-1] == 1.0
        if p == -2.0:
            assert m.masses[-1] == pytest.approx(0.195, abs=1e-3)

    @pytest.mark.parametrize("p", [2.0, -2.0, math.inf])
    def test_tails_that_round_together_fold(self, p):
        # the middle atom's 1e-20 leaves the tails above and below it equal:
        # the measure raised "breakpoints must ... increase strictly"
        d = from_samples([0.0, 1.0, 2.0], [0.5, 1e-20, 0.5])
        spec = RiskSpec(0.3, p)
        m = kusuoka(d, spec)
        assert np.all(np.diff(m.tails) < 0.0)
        assert m.heights[-1] == evar(d, spec).density.weights[-1]
        assert abs(kusuoka_evaluate(m, d) - evar(d, spec).value) <= 1e-12 * 2.0

    def test_evaluation_matches_the_per_level_loop(self):
        rng = np.random.default_rng(33)
        y = rng.lognormal(size=2000)
        for d in (from_samples(y), from_samples(y, rng.dirichlet(np.ones(2000)))):
            spread = esssup(d) - d.values[0]
            for a, p in ((0.5, -2.0), (0.5, 2.0), (0.95, 10.0), (0.95, math.inf), (0.9, 1.0),
                         (0.0, 2.0)):
                m = kusuoka(d, RiskSpec(a, p))
                assert abs(kusuoka_evaluate(m, d) - kusuoka_evaluate_loop(m, d)) <= 1e-14 * spread

    @pytest.mark.parametrize("p", [2.0, 10.0, math.inf, -2.0])
    def test_identity_at_a_million_atoms(self, p):
        # one tail mean per level took O(levels x atoms): hours at this size
        d = from_samples(np.random.default_rng(34).lognormal(size=1_000_000))
        spec = RiskSpec(0.95, p)
        value = kusuoka_evaluate(kusuoka(d, spec), d)
        assert abs(value - evar(d, spec).value) <= 1e-12 * (esssup(d) - d.values[0])
