import tracemalloc

import numpy as np
import pytest

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    FbmKernel,
    Model,
    PathEnsemble,
    PowerKernel,
    TimeGrid,
    clt_gap,
    clt_pair,
    holder_probe,
    scaling_regression,
    simulate_particles,
    solve_deterministic_limit,
    strong_error_vs_eps,
)
from volterra_mv import fluctuations


def _model(a=0.0, b=0.0, sigma0=1.0, sigma1=None):
    return Model(
        k1=ConstantKernel(1.0), k2=ConstantKernel(1.0),
        coeffs=BuiltinLinearMeanField(a=a, b=b, sigma0=sigma0, sigma1=sigma1).coefficients(),
    )


class TestCltPair:
    def test_additive_case_gap_is_rounding(self):
        # b = 0, sigma constant: the linearization is exact
        grid = TimeGrid(1.0, 100)
        pair = clt_pair(_model(), 0.0, 1e-3, grid, 400, seed=1)
        gap = clt_gap(pair, p=2)
        assert gap.value <= 1e-24

    def test_linear_drift_constant_sigma_gap_is_rounding(self):
        # linear drift and state-independent sigma: the coupled pair coincides
        grid = TimeGrid(1.0, 100)
        pair = clt_pair(_model(a=1.0, b=0.5), 1.0, 1e-2, grid, 500, seed=2)
        gap = clt_gap(pair, p=2)
        assert gap.value <= 1e-20

    def test_linear_variance_oracle(self):
        # A = a, B = 0, sigma = 1: Var(Z(T)) -> int_0^T e^{2a(T-s)} ds
        a_ = 0.7
        grid = TimeGrid(1.0, 200)
        pair = clt_pair(_model(a=a_), 1.0, 1e-2, grid, 50_000, seed=5)
        var = pair.z_lim.states[:, -1, 0].var()
        oracle = (np.exp(2 * a_) - 1.0) / (2 * a_)
        assert var == pytest.approx(oracle, rel=0.02)

    def test_mean_field_term_keeps_zero_mean(self):
        # A = 0, B = bbar: the limiting mean solves m' = bbar m, m(0) = 0
        grid = TimeGrid(1.0, 100)
        pair = clt_pair(_model(b=0.8), 1.0, 1e-2, grid, 50_000, seed=6)
        term = pair.z_lim.states[:, -1, 0]
        assert abs(term.mean()) <= 3 * term.std() / np.sqrt(term.size)

    def test_tiny_eps_probe(self):
        # continuity in sqrt(eps): at eps = 1e-12 the pair is indistinguishable
        grid = TimeGrid(1.0, 50)
        pair = clt_pair(_model(a=1.0, b=0.5, sigma1=0.5), 1.0, 1e-12, grid, 200, seed=7)
        sup = np.linalg.norm(pair.z_eps.states - pair.z_lim.states, axis=2).max()
        scale = np.abs(pair.z_lim.states).max()
        assert sup <= 1e-5 * max(scale, 1.0)

    def test_gap_decreases_with_eps(self):
        grid = TimeGrid(1.0, 100)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            pair = clt_pair(_model(a=1.0, sigma1=0.5), 1.0, eps, grid, 2000, seed=8)
            gaps.append(clt_gap(pair, p=2).value)
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_affine_sigma_gap_slope(self):
        grid = TimeGrid(1.0, 100)
        gaps = {}
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            pair = clt_pair(_model(a=1.0, b=0.5, sigma1=0.5), 1.0, eps, grid, 4000, seed=9)
            gaps[eps] = clt_gap(pair, p=2).value
        reg = scaling_regression(gaps, expected_slope=1.0)
        assert reg.slope == pytest.approx(1.0, abs=0.2)

    def test_gap_bound_over_initial_ball(self):
        # the deviation bound carries a (1 + |xi|^{2p}) factor; check the gap
        # stays controlled at several points of the ball |xi| <= 2, one by one
        grid = TimeGrid(1.0, 60)
        eps = 1e-2
        for xi in (-2.0, -0.5, 0.0, 1.0, 2.0):
            pair = clt_pair(_model(a=1.0, sigma1=0.5), xi, eps, grid, 1000, seed=10)
            gap = clt_gap(pair, p=2).value
            assert gap <= 50.0 * eps * (1.0 + xi**4)

    def test_measure_derivative_taken_at_the_limit_path(self):
        # b(x, mu) = a x + c int y^2 mu(dy) has measure derivative 2 c y, which
        # varies in y; the linear equation must pair it, at y = X^0_t, with
        # the ensemble mean of Z.  Oracle: a plain double loop over the weights
        from volterra_mv import CoefficientSet
        from volterra_mv.kernels import grid_weights

        a_, c_ = -0.5, 0.8
        coeffs = CoefficientSet(
            b=lambda t, x, mu: a_ * x + c_ * mu.second_moment(),
            sigma=lambda t, x, mu: np.ones((*x.shape, 1)),
            grad_b=lambda t, x, mu: np.full((*x.shape, 1), a_),
            lions_b=lambda t, x, mu, y: 2.0 * c_ * np.asarray(y, dtype=float)[..., None],
            d=1, m=1,
        )
        model = Model(k1=ConstantKernel(1.0), k2=FbmKernel(0.3), coeffs=coeffs)
        grid = TimeGrid(1.0, 40)
        pair = clt_pair(model, 1.0, 1e-2, grid, 8, seed=3)
        x0 = pair.x0_path[:, 0]
        dw = pair.z_lim.driver_increments[:, :, 0]
        w1, w2 = grid_weights(model.k1, grid), grid_weights(model.k2, grid)

        def linear_z(lions_at):
            z = np.zeros((8, grid.n_steps + 1))
            for i in range(grid.n_steps):
                for k in range(i + 1):
                    drift = a_ * z[:, k] + 2.0 * c_ * lions_at[k] * z[:, k].mean()
                    z[:, i + 1] += grid.dt * w1[i + 1, k] * drift + w2[i + 1, k] * dw[:, k]
            return z

        want = linear_z(x0)
        assert np.allclose(pair.z_lim.states[:, :, 0], want, rtol=1e-12, atol=1e-12)
        # the mean term is visible at this N: y = 0 would give another Z
        assert np.abs(linear_z(np.zeros_like(x0)) - want).max() > 1e-3

    def test_requires_derivatives(self):
        from volterra_mv import CoefficientSet

        coeffs = CoefficientSet(
            b=lambda t, x, mu: 0.0 * x,
            sigma=lambda t, x, mu: np.ones((*x.shape, 1)),
            d=1, m=1,
        )
        model = Model(k1=ConstantKernel(1.0), k2=ConstantKernel(1.0), coeffs=coeffs)
        with pytest.raises(ValueError):
            clt_pair(model, 0.0, 0.1, TimeGrid(1.0, 10), 4, seed=0)

    def test_rejects_random_initial(self):
        with pytest.raises(ValueError):
            clt_pair(_model(), lambda n, rng: rng.normal(size=(n, 1)), 0.1,
                     TimeGrid(1.0, 10), 4, seed=0)

    def test_gap_rejects_uncoupled(self):
        grid = TimeGrid(1.0, 20)
        a = clt_pair(_model(), 0.0, 0.1, grid, 8, seed=1)
        b = clt_pair(_model(), 0.0, 0.1, grid, 8, seed=2)
        from volterra_mv.fluctuations import FluctuationPair

        with pytest.raises(ValueError):
            FluctuationPair(z_eps=a.z_eps, z_lim=b.z_lim, eps=0.1, x0_path=a.x0_path)



SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)


class TestChainedPairs:
    # clt_pair(limit=earlier) reuses X^0, the increments and Z of an earlier
    # eps; every array must equal that of a fresh call bit for bit
    @pytest.mark.parametrize("rough", [False, True])
    def test_chain_equals_fresh_calls(self, rough):
        model = _model(a=1.0, b=0.5, sigma1=0.5)
        if rough:
            model = Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3), coeffs=model.coeffs)
        grid = TimeGrid(1.0, 40)
        pair = None
        for eps in SWEEP:
            pair = clt_pair(model, 1.0, eps, grid, 64, seed=7, limit=pair)
            fresh = clt_pair(model, 1.0, eps, grid, 64, seed=7)
            assert pair.eps == pair.z_eps.eps == pair.z_lim.eps == eps
            assert np.array_equal(pair.z_eps.states, fresh.z_eps.states)
            assert np.array_equal(pair.z_lim.states, fresh.z_lim.states)
            assert np.array_equal(pair.x0_path, fresh.x0_path)
            assert np.array_equal(pair.z_eps.driver_increments, fresh.z_eps.driver_increments)
            assert np.array_equal(pair.z_lim.driver_increments, fresh.z_lim.driver_increments)

    @pytest.mark.parametrize("change", [
        {"seed": 8},
        {"grid": TimeGrid(1.0, 21)},
        {"grid": TimeGrid(2.0, 20)},
        {"n_particles": 9},
        {"xi": 0.5},
    ])
    def test_mismatched_limit_is_refused(self, change):
        args = {"xi": 1.0, "grid": TimeGrid(1.0, 20), "n_particles": 8, "seed": 1}
        model = _model(a=1.0, sigma1=0.5)
        earlier = clt_pair(model, eps=0.1, **args)
        with pytest.raises(ValueError):
            clt_pair(model, eps=0.01, limit=earlier, **{**args, **change})


def _oracle_gap(pair, p, n_bootstrap=200, seed=0):
    # clt_gap as it was: the sup taken per call, one resample per draw
    diff = pair.z_eps.states - pair.z_lim.states
    vals = np.linalg.norm(diff, axis=2).max(axis=1) ** p
    rng = np.random.default_rng(seed)
    boots = [vals[rng.integers(0, vals.size, size=vals.size)].mean() for _ in range(n_bootstrap)]
    return float(vals.mean()), float(np.std(boots, ddof=1))


class TestCltGap:
    # n = 1999 draws its 200 resamples in blocks of 16 rows, the last of 8;
    # n = 20000 draws them one at a time
    @pytest.mark.parametrize("n", [1, 37, 1999, 20_000])
    def test_matches_per_resample_oracle(self, n):
        pair = clt_pair(_model(a=1.0, b=0.5, sigma1=0.5), 1.0, 0.1, TimeGrid(1.0, 10), n, seed=3)
        for p in (2, 4, 1.5):
            gap = clt_gap(pair, p=p)
            value, stderr = _oracle_gap(pair, p)
            assert (gap.value, gap.stderr) == (value, stderr)

    def test_sup_taken_once_per_pair(self):
        pair = clt_pair(_model(a=1.0, sigma1=0.5), 1.0, 0.1, TimeGrid(1.0, 10), 16, seed=3)
        clt_gap(pair, p=2)
        sup = pair.sup_gap
        clt_gap(pair, p=4)
        assert pair.sup_gap is sup
        assert np.array_equal(sup, np.abs(pair.z_eps.states - pair.z_lim.states).max(axis=(1, 2)))

    def test_blocked_sup_matches_one_block(self, monkeypatch):
        # blocks of 3 steps at N = 16, d = 2, the last one partial
        monkeypatch.setattr(fluctuations, "_BLOCK_FLOATS", 96)
        model = Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3), coeffs=BuiltinLinearMeanField(
            a=1.0, b=0.5, sigma0=np.eye(2), sigma1=0.5, d=2, m=2).coefficients())
        pair = clt_pair(model, [1.0, -0.5], 0.1, TimeGrid(1.0, 10), 16, seed=3)
        diff = pair.z_eps.states - pair.z_lim.states
        assert np.array_equal(pair.sup_gap, np.linalg.norm(diff, axis=2).max(axis=1))


class TestMoments:
    def test_sup_moment_bounded_in_eps(self):
        grid = TimeGrid(1.0, 50)
        model = _model(a=1.0, b=0.5)
        sup_moments = {}
        for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            ens = simulate_particles(model.k1, model.k2, model.coeffs, 1.0, eps,
                                     grid, 2000, seed=12)
            sup_moments[eps] = (np.abs(ens.states[:, :, 0]) ** 4).mean(axis=0).max()
        assert max(sup_moments.values()) <= 2.0 * sup_moments[1.0]

    def test_limit_gaussianity(self):
        # the limiting fluctuation is linear with additive noise, so its
        # terminal marginal has Gaussian skewness and kurtosis
        grid = TimeGrid(1.0, 60)
        pair = clt_pair(_model(a=1.0, b=0.5), 1.0, 1e-2, grid, 100_000, seed=13)
        z = pair.z_lim.states[:, -1, 0]
        zc = z - z.mean()
        skew = float((zc**3).mean() / zc.std() ** 3)
        kurt = float((zc**4).mean() / zc.std() ** 4 - 3.0)
        assert abs(skew) <= 0.05
        assert abs(kurt) <= 0.1


class TestScalingRegression:
    def test_exact_linear(self):
        reg = scaling_regression({e: e for e in (1e-1, 1e-2, 1e-3, 1e-4)})
        assert reg.slope == pytest.approx(1.0, abs=1e-12)
        assert reg.r2 == pytest.approx(1.0, abs=1e-12)

    def test_synthetic_half_slope(self):
        reg = scaling_regression({e: 3.0 * e**0.5 for e in (1e-1, 1e-2, 1e-3, 1e-4)})
        assert reg.slope == pytest.approx(0.5, abs=1e-12)
        assert reg.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_strong_error_half_slope(self):
        grid = TimeGrid(1.0, 100)
        errs = strong_error_vs_eps(_model(a=1.0, b=0.5), 1.0,
                                   [1e-1, 1e-2, 1e-3, 1e-4], grid, 2000, seed=14)
        reg = scaling_regression(errs, expected_slope=0.5)
        assert reg.slope == pytest.approx(0.5, abs=0.1)

    def test_strong_error_matches_per_eps_passes(self):
        # the shared increments leave every value as one fresh pass per eps gave
        model = _model(a=1.0, b=0.5, sigma1=0.5)
        grid = TimeGrid(1.0, 30)
        errs = strong_error_vs_eps(model, 1.0, SWEEP, grid, 50, seed=14)
        x0 = solve_deterministic_limit(model.k1, model.coeffs, 1.0, grid)
        for eps in SWEEP:
            ens = simulate_particles(model.k1, model.k2, model.coeffs, 1.0, eps,
                                     grid, 50, seed=14)
            sup = np.linalg.norm(ens.states - x0[None, :, :], axis=2).max(axis=1)
            assert errs[eps] == float(sup.mean())

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_regression({1.0: 1.0, 0.5: 1.0, 0.25: 1.0, 0.125: 1.0})
        with pytest.raises(ValueError):
            scaling_regression({1.0: 1.0, 1e-1: -1.0, 1e-2: 1.0, 1e-3: 1.0})
        with pytest.raises(ValueError):
            scaling_regression({1.0: 1.0, 1e-3: 1.0})


class TestHolderProbe:
    def _ensemble_from_paths(self, grid, paths):
        states = np.asarray(paths)[:, :, None]
        dw = np.zeros((states.shape[0], grid.n_steps, 1))
        return PathEnsemble(grid=grid, states=states, driver_increments=dw,
                            seed=0, tag="manual", eps=0.0)

    def test_constant_path(self):
        grid = TimeGrid(1.0, 20)
        ens = self._ensemble_from_paths(grid, [np.ones(21)])
        assert holder_probe(ens, 0.5).max_ratio_stat == 0.0

    def test_linear_path_alpha_one(self):
        grid = TimeGrid(1.0, 20)
        ens = self._ensemble_from_paths(grid, [grid.times])
        assert holder_probe(ens, 1.0).max_ratio_stat == pytest.approx(1.0)

    def test_blocks_bound_memory_and_match_one_block(self):
        grid = TimeGrid(1.0, 100)
        paths = np.cumsum(np.random.default_rng(16).normal(size=(3000, 101)), axis=1)
        ens = self._ensemble_from_paths(grid, paths)
        tracemalloc.start()
        try:
            got = holder_probe(ens, 0.5).max_ratio_stat
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few MB of block temporaries; all 5050 pairs in one block take about 485 MB
        assert peak < 16e6
        # all 5050 node pairs in one block, a few particles at a time
        ii, jj = np.triu_indices(101, k=1)
        dt_pow = (grid.times[jj] - grid.times[ii]) ** 0.5
        best = np.concatenate([
            (np.linalg.norm(part[:, jj, :] - part[:, ii, :], axis=2) / dt_pow).max(axis=1)
            for part in np.split(ens.states, 30)
        ])
        assert got == float((best**1.0).mean() ** 1.0)

    def test_fbm_refinement_stability(self):
        stats = []
        for n in (64, 128):
            grid = TimeGrid(1.0, n)
            ens = simulate_particles(ConstantKernel(1.0), FbmKernel(0.7),
                                     _model().coeffs, 0.0, 1.0, grid, 200, seed=15)
            stats.append(holder_probe(ens, 0.6).max_ratio_stat)
        ratio = stats[1] / stats[0]
        assert 0.5 <= ratio <= 2.0

    def test_report_formats(self, tmp_path):
        from volterra_mv import holder_report, regression_report

        grid = TimeGrid(1.0, 20)
        ens = self._ensemble_from_paths(grid, [grid.times])
        path = tmp_path / "holder.csv"
        rows = holder_report(ens, [0.5, 1.0], path=path)
        assert path.read_text().splitlines()[0] == "alpha,holder_stat"
        assert rows[1][1] == pytest.approx(1.0)

        reg = scaling_regression({e: e for e in (1e-1, 1e-2, 1e-3, 1e-4)},
                                 expected_slope=1.0)
        text = regression_report(reg, path=tmp_path / "reg.txt")
        assert "slope = 1" in text
        assert (tmp_path / "reg.txt").read_text() == text
