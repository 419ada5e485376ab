
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
from volterra_mv.kernels import history_bytes
from volterra_mv.rng import normal_increments


def _model(a=0.0, b=0.0, sigma0=1.0, sigma1=None):
    return Model(
        k1=ConstantKernel(1.0), k2=ConstantKernel(1.0),
        coeffs=BuiltinLinearMeanField(a=a, b=b, sigma0=sigma0, sigma1=sigma1).coefficients(),
    )


def _d2_model():
    return Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3), coeffs=BuiltinLinearMeanField(
        a=1.0, b=0.5, sigma0=np.eye(2), sigma1=0.5, d=2, m=2).coefficients())


def _z_eps_states(pair):
    """The Z^eps path of a clt_pair pair, which keeps none: the pair's particle
    pass run again, eagerly, on its increments, less X^0 and over sqrt(eps)."""
    z_eps, model = pair.z_eps, pair.model
    dw = z_eps.driver_increments
    states = simulate_particles(model.k1, model.k2, model.coeffs, pair.x0_path[0], pair.eps,
                                z_eps.grid, dw.shape[0], z_eps.seed, driver_increments=dw).states
    states -= pair.x0_path[None, :, :]
    states /= np.sqrt(pair.eps)
    return states


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
        sup = np.linalg.norm(_z_eps_states(pair) - pair.z_lim.states, axis=2).max()
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
        reg = scaling_regression(gaps)
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
        w1, w2 = model.k1.average_weights(grid), model.k2.average_weights(grid)

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
    def test_first_pair_builds_both_weights_before_the_draw(self, monkeypatch):
        # no weight build's scratch sits beside the increments: when they are
        # drawn, both kernels' march weights are cached already
        model = Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3),
                      coeffs=_model(a=1.0, b=0.5, sigma1=0.5).coeffs)
        grid = TimeGrid(1.0, 40)
        cached = []
        real = fluctuations._rng.normal_increments

        def drawing(*args):
            cached.append([getattr(k, "_march_cache", None) is not None
                           for k in (model.k1, model.k2)])
            return real(*args)

        monkeypatch.setattr(fluctuations._rng, "normal_increments", drawing)
        clt_pair(model, 1.0, 0.1, grid, 64, seed=7)
        assert cached == [[True, True]]

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
            assert np.array_equal(_z_eps_states(pair), _z_eps_states(fresh))
            assert np.array_equal(pair.z_lim.states, fresh.z_lim.states)
            assert np.array_equal(pair.x0_path, fresh.x0_path)
            assert np.array_equal(pair.z_eps.driver_increments, fresh.z_eps.driver_increments)
            assert np.array_equal(pair.z_lim.driver_increments, fresh.z_lim.driver_increments)

    def test_chain_marches_on_one_workspace(self, history_buffers):
        # the first pair's Z march allocates the history buffers; every later
        # pass of the chain runs on them, and its sup, its Z and the gap
        # taken from the sup alone keep their bits
        model = Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3),
                      coeffs=_model(a=1.0, b=0.5, sigma1=0.5).coeffs)
        grid = TimeGrid(1.0, 40)
        fresh = [clt_pair(model, 1.0, eps, grid, 64, seed=7) for eps in SWEEP]
        history_buffers.clear()
        pair = first = None
        for eps, want in zip(SWEEP, fresh):
            pair = clt_pair(model, 1.0, eps, grid, 64, seed=7, limit=pair)
            first = first or pair
            assert pair._workspace is first._workspace
            assert np.array_equal(pair.sup_gap, want.sup_gap)
            assert np.array_equal(pair.z_lim.states, want.z_lim.states)
            assert clt_gap(pair.sup_gap, p=4) == clt_gap(want, p=4)
        # X^0's one-particle march, and the Z march's two histories
        assert history_buffers.count(True) == 3

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

    def test_limit_from_another_model_is_refused(self):
        # seed, grid, N and xi all match, but X^0 and Z are another model's:
        # with A = -3, sigma0 = 2 the borrowed Z differs from the pair's own
        args = {"xi": 1.0, "grid": TimeGrid(1.0, 20), "n_particles": 8, "seed": 1}
        earlier = clt_pair(_model(a=1.0, sigma1=0.5), eps=0.1, **args)
        other = _model(a=-3.0, sigma0=2.0)
        own = clt_pair(other, eps=0.01, **args)
        assert not np.array_equal(own.z_lim.states, earlier.z_lim.states)
        with pytest.raises(ValueError, match="another model"):
            clt_pair(other, eps=0.01, limit=earlier, **args)
        # an equal but distinct Model object is another model too
        copy = Model(k1=other.k1, k2=other.k2, coeffs=other.coeffs)
        with pytest.raises(ValueError, match="another model"):
            clt_pair(copy, eps=0.001, limit=own, **args)
        assert clt_pair(other, eps=0.001, limit=own, **args).model is other


def _oracle_gap(pair, p, n_bootstrap=200, seed=0):
    # clt_gap as it was: the sup taken per call, one resample per draw
    diff = _z_eps_states(pair) - pair.z_lim.states
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

    @pytest.mark.parametrize("n", [64, 500, 2000, 40_000])
    def test_bootstrap_bytes_are_its_index_and_value_blocks(self, monkeypatch, n):
        # the largest block of resample indices clt_gap draws, beside the
        # values they pick, one float each
        blocks = []
        real = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self._rng = real(seed)

            def integers(self, *args, **kwargs):
                idx = self._rng.integers(*args, **kwargs)
                blocks.append(idx.nbytes + idx.size * np.dtype(float).itemsize)
                return idx

        monkeypatch.setattr(np.random, "default_rng", Recording)
        clt_gap(np.linspace(0.0, 1.0, n), p=2)
        assert fluctuations._bootstrap_bytes(n) == max(blocks)

    def test_sup_taken_once_per_pair(self):
        pair = clt_pair(_model(a=1.0, sigma1=0.5), 1.0, 0.1, TimeGrid(1.0, 10), 16, seed=3)
        clt_gap(pair, p=2)
        sup = pair.sup_gap
        clt_gap(pair, p=4)
        assert pair.sup_gap is sup
        assert np.array_equal(sup, np.abs(_z_eps_states(pair) - pair.z_lim.states).max(axis=(1, 2)))

    def test_blocked_sup_matches_one_block(self):
        # the sup the particle pass folds node by node, at d = 2, equals one
        # norm over the whole eager paths
        pair = clt_pair(_d2_model(), [1.0, -0.5], 0.1, TimeGrid(1.0, 10), 16, seed=3)
        diff = _z_eps_states(pair) - pair.z_lim.states
        assert np.array_equal(pair.sup_gap, np.linalg.norm(diff, axis=2).max(axis=1))


def _block_sup(a, b, width):
    """sup_t |a_t - b_t| of each particle, as the library took it before the
    march folded it: a running max over blocks of ``width`` nodes of the held
    paths a (N, n+1, d) and b broadcasting against them."""
    sup = np.full(a.shape[0], -np.inf)
    for lo in range(0, a.shape[1], width):
        gap = np.linalg.norm(a[:, lo:lo + width] - b[:, lo:lo + width], axis=2)
        np.maximum(sup, gap.max(axis=1), out=sup)
    return sup


def _count_marches(monkeypatch):
    """Count every particle and linear march from here on."""
    from volterra_mv import solvers

    calls = []

    def counted(real):
        def march(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return march

    for owner, name in ((solvers, "_simulate"), (fluctuations, "_simulate"),
                        (solvers, "_linear_march"), (fluctuations, "_linear_march")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    return calls


class TestFoldedSup:
    # the particle pass folds sup_t |Z^eps_t - Z_t| node by node and keeps no
    # path; the eager paths give the same bits
    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_folded_sup_matches_block_oracle(self, dim, chained):
        if dim == 1:
            model, xi = _model(a=1.0, b=0.5, sigma1=0.5), 1.0
        else:
            model, xi = _d2_model(), [1.0, -0.5]
        grid = TimeGrid(1.0, 40)
        pair = None
        for eps in SWEEP:
            pair = clt_pair(model, xi, eps, grid, 32, seed=5, limit=pair if chained else None)
            for width in (1, 3, 41):
                want = _block_sup(_z_eps_states(pair), pair.z_lim.states, width)
                assert np.array_equal(pair.sup_gap, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fold_norms_are_linalg_norm_bit_for_bit(self, dim):
        # signed zeros, subnormals, infinities, nans, and squares that under-
        # or overflow, where |g| at d = 1 is not the norm
        vals = np.array([0.0, -0.0, 5e-324, -1e-170, 1e-150, 1e160, -1e200, np.inf, -np.inf,
                         np.nan, 1.5, -2.25])
        rng = np.random.default_rng(8)
        g = np.concatenate([vals, rng.normal(size=600) * 10.0 ** rng.integers(-200, 200, 600)])
        g = g[:g.size // dim * dim].reshape(-1, dim)
        with np.errstate(all="ignore"):
            want = np.linalg.norm(g, axis=1)
            got = fluctuations._norms(g.copy())
            if dim == 1:
                assert not np.array_equal(np.abs(g[:, 0]), want, equal_nan=True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pair_of_held_paths_folds_them(self, dim):
        # a pair built by hand from two held paths takes its sup node by node
        # from them, bit for bit the block oracle's, and its Z^eps must start
        # at zero
        from volterra_mv.fluctuations import FluctuationPair

        if dim == 1:
            model, xi = _model(a=1.0, b=0.5, sigma1=0.5), 1.0
        else:
            model, xi = _d2_model(), [1.0, -0.5]
        pair = clt_pair(model, xi, 1e-2, TimeGrid(1.0, 30), 24, seed=6)

        def held(ens, states):
            return PathEnsemble(grid=ens.grid, states=states, driver_increments=ens.driver_increments,
                                seed=ens.seed, tag=ens.tag, eps=ens.eps)

        a, b = _z_eps_states(pair), pair.z_lim.states
        hand = FluctuationPair(z_eps=held(pair.z_eps, a), z_lim=held(pair.z_lim, b),
                               eps=pair.eps, x0_path=pair.x0_path)
        assert hand.model is None
        for width in (1, 4, 31):
            assert np.array_equal(hand.sup_gap, _block_sup(a, b, width))
        assert np.array_equal(hand.sup_gap, pair.sup_gap)
        shifted = a.copy()
        shifted[3, 0, -1] = 1e-300
        with pytest.raises(ValueError, match="start at zero"):
            FluctuationPair(z_eps=held(pair.z_eps, shifted), z_lim=held(pair.z_lim, b),
                            eps=pair.eps, x0_path=pair.x0_path)

    def test_constructors_take_no_new_parameters(self):
        # clt_pair records the model and the folded sup after building the
        # pair: neither is a constructor parameter
        import inspect

        from volterra_mv.fluctuations import FluctuationPair

        assert list(inspect.signature(FluctuationPair).parameters) == [
            "z_eps", "z_lim", "eps", "x0_path"]
        assert list(inspect.signature(PathEnsemble).parameters) == [
            "grid", "states", "driver_increments", "seed", "tag", "eps", "_components"]

    def test_strong_error_validates_before_any_pass(self, monkeypatch):
        calls = _count_marches(monkeypatch)
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError, match="eps must lie"):
            strong_error_vs_eps(_model(), 1.0, [0.1, 1.5], grid, 8, seed=0)
        with pytest.raises(ValueError, match="at least one particle"):
            strong_error_vs_eps(_model(), 1.0, [0.1], grid, 0, seed=0)
        assert calls == []

    @pytest.mark.parametrize("chained", [False, True])
    def test_rebuilt_states_equal_an_eager_pass(self, chained):
        model = _d2_model()
        grid = TimeGrid(1.0, 40)
        first = clt_pair(model, [1.0, -0.5], 0.1, grid, 24, seed=4)
        pair = clt_pair(model, [1.0, -0.5], 1e-3, grid, 24, seed=4,
                        limit=first if chained else None)
        # Z^eps keeps no path; the helper's eager pass is the one the sup
        # was folded in, bit for bit
        assert "states" not in vars(pair.z_eps)
        with pytest.raises(AttributeError):
            pair.z_eps.states
        dw = normal_increments(4, "particles", 24, grid.n_steps, 2, grid.dt)
        assert np.array_equal(pair.z_eps.driver_increments, dw)
        eager = simulate_particles(model.k1, model.k2, model.coeffs, [1.0, -0.5], 1e-3,
                                   grid, 24, 4, driver_increments=dw).states
        want = (eager - pair.x0_path[None, :, :]) / np.sqrt(1e-3)
        assert np.array_equal(_z_eps_states(pair), want)
        gap = np.linalg.norm(want - pair.z_lim.states, axis=2).max(axis=1)
        assert np.array_equal(pair.sup_gap, gap)

    def test_march_counter_sees_every_pass_of_a_pair(self, monkeypatch):
        # the counter above guards the reads below: it must see the particle
        # pass beside Z, however fluctuations calls it; a first pair also
        # marches X^0 (one noise-free particle) and Z
        calls = _count_marches(monkeypatch)
        model, grid = _model(a=1.0, sigma1=0.5), TimeGrid(1.0, 10)
        first = clt_pair(model, 1.0, 0.1, grid, 8, seed=3)
        assert sorted(calls) == ["_linear_march", "_simulate", "_simulate"]
        calls.clear()
        clt_pair(model, 1.0, 0.01, grid, 8, seed=3, limit=first)
        assert calls == ["_simulate"]

    def test_reads_of_the_gap_run_no_march(self, monkeypatch):
        pair = clt_pair(_model(a=1.0, sigma1=0.5), 1.0, 0.1, TimeGrid(1.0, 20), 16, seed=3)
        calls = _count_marches(monkeypatch)
        assert pair.z_lim.states.shape == (16, 21, 1)
        assert pair.z_eps.driver_increments.shape == (16, 20, 1)
        assert pair.z_eps.n_particles == 16
        assert pair.sup_gap.shape == (16,)
        clt_gap(pair, p=2)
        clt_gap(pair, p=4)
        assert calls == []
        # Z^eps keeps no path to read
        with pytest.raises(AttributeError):
            pair.z_eps.states
        assert "states" not in vars(pair.z_eps) and calls == []

    def test_pathless_ensemble_says_it_holds_no_path(self):
        # dim reads states; the error names the missing path, not just "dim"
        pair = clt_pair(_model(a=1.0, sigma1=0.5), 1.0, 0.1, TimeGrid(1.0, 10), 8, seed=1)
        assert pair.z_lim.dim == 1
        for name in ("states", "dim"):
            with pytest.raises(AttributeError, match="holds no path"):
                getattr(pair.z_eps, name)
        with pytest.raises(AttributeError, match="holds no path"):
            pair.z_eps.terminal()

    def test_chained_sweep_peaks_below_its_arrays(self, traced_peak):
        # three chained eps cells at N = 2000, n = 200: the peak is the
        # increments, Z, the two histories of a march and the weights of
        # both kernels, within 1 MB of block and node temporaries; a pass
        # that kept its path would add N (n + 1) d floats (3.2 MB)
        n_particles, grid = 2000, TimeGrid(1.0, 200)
        n, d, m = grid.n_steps, 1, 1

        def sweep():
            # a new model each run, so that its weights are built and counted
            model = _model(a=1.0, b=0.5, sigma1=0.5)
            pair = None
            for eps in (1e-1, 1e-2, 1e-3):
                pair = clt_pair(model, 1.0, eps, grid, n_particles, seed=3, limit=pair)
                clt_gap(pair, p=2)

        floats = n_particles * (n * m + (n + 1) * d) + 2 * (n + 1) * n
        assert traced_peak(sweep) <= 8 * floats + 2 * history_bytes(n_particles * d, n) + 1e6


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
        reg = scaling_regression(errs)
        assert reg.slope == pytest.approx(0.5, abs=0.1)

    def test_strong_error_matches_per_eps_passes(self):
        # the shared increments and the folded sup leave every value as one
        # fresh pass per eps gave, with its sup taken at once or in blocks
        model = _model(a=1.0, b=0.5, sigma1=0.5)
        grid = TimeGrid(1.0, 30)
        errs = strong_error_vs_eps(model, 1.0, SWEEP, grid, 50, seed=14)
        x0 = solve_deterministic_limit(model.k1, model.coeffs, 1.0, grid)
        assert list(errs) == list(SWEEP)
        for eps in SWEEP:
            ens = simulate_particles(model.k1, model.k2, model.coeffs, 1.0, eps,
                                     grid, 50, seed=14)
            sup = np.linalg.norm(ens.states - x0[None, :, :], axis=2).max(axis=1)
            assert errs[eps] == float(sup.mean())
            assert errs[eps] == float(_block_sup(ens.states, x0[None, :, :], 7).mean())

    def test_strong_error_passes_share_their_history_buffers(self, history_buffers):
        # X^0's one-particle march and the first pass allocate history
        # buffers; the later passes run on the first pass's
        strong_error_vs_eps(_model(a=1.0, b=0.5), 1.0, SWEEP, TimeGrid(1.0, 30), 50, seed=14)
        assert history_buffers.count(True) == 3
        assert history_buffers.count(False) == 2 * (len(SWEEP) - 1)

    def test_strong_error_sup_is_taken_in_blocks(self, traced_peak):
        # each eps pass folds the sup over the nodes and keeps no path, so a
        # sweep holds no more than one pass on given increments that keeps
        # its path; a norm over the whole ensemble at once added about 1.7
        # ensemble-sized arrays
        model = _model(a=1.0, b=0.5)
        grid = TimeGrid(1.0, 200)
        n_particles = 4000
        sweep = traced_peak(lambda: strong_error_vs_eps(model, 1.0, [1e-2], grid,
                                                        n_particles, seed=3))

        def one_pass():
            dw = normal_increments(3, "particles", n_particles, grid.n_steps, 1, grid.dt)
            simulate_particles(model.k1, model.k2, model.coeffs, 1.0, 1e-2, grid,
                               n_particles, 3, driver_increments=dw)

        assert sweep <= traced_peak(one_pass)

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

    def test_blocks_bound_memory_and_match_one_block(self, traced_peak):
        grid = TimeGrid(1.0, 100)
        paths = np.cumsum(np.random.default_rng(16).normal(size=(3000, 101)), axis=1)
        ens = self._ensemble_from_paths(grid, paths)
        # a few MB of block temporaries; all 5050 pairs in one block take about 485 MB
        assert traced_peak(lambda: holder_probe(ens, 0.5)) < 16e6
        got = holder_probe(ens, 0.5).max_ratio_stat
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
