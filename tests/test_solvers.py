import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from volterra_mv import (
    BlowUpError,
    BuiltinLinearMeanField,
    ConstantKernel,
    ControlPath,
    EmpiricalMeasure,
    FbmKernel,
    GridMismatchError,
    PowerKernel,
    TimeGrid,
    integrate_kernel,
    simulate_controlled,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
)
from volterra_mv import kernels, solvers
from volterra_mv.kernels import BLAS_THREADED_WIDTH, GridKernel, resolvent
from volterra_mv.rng import normal_increments

from test_path_linearization import loop_mdp_particles


def _successive_approximation(kernels, xi, grid, integrands, tol, max_iter):
    """Oracle for the explicit forward march: Picard sweeps of the discrete
    map phi -> xi + sum_j dt * W_j @ f_j(phi), with every integrand f_j
    re-evaluated along the whole previous sweep, until the sup-norm change
    is at most tol."""
    n, dt = grid.n_steps, grid.dt
    weights = [k.average_weights(grid) for k in kernels]
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    phi = np.tile(xi, (n + 1, 1))
    for _ in range(max_iter):
        new = xi[None, :].copy()
        for w, f in zip(weights, integrands):
            hist = np.array([f(grid.times[k], phi[k], k) for k in range(n)])
            new = new + dt * (w @ hist)
        resid = float(np.max(np.abs(new - phi)))
        phi = new
        if resid <= tol:
            return phi
    raise AssertionError(f"successive approximation did not converge in {max_iter} sweeps")


def picard_limit(k1, coeffs, xi, grid, tol=1e-12, max_iter=200):
    """Limit equation, its own Dirac law updated with the path each sweep."""
    def drift(t, x, k):
        return coeffs.drift(t, x[None, :], EmpiricalMeasure.dirac(x))[0]

    return _successive_approximation([k1], xi, grid, [drift], tol, max_iter)


def picard_controlled(k1, kc, coeffs, xi, v, x0, grid, tol=1e-12, max_iter=400):
    """Controlled ldp equation with the law frozen at the limit path x0."""
    def drift(t, x, k):
        return coeffs.drift(t, x[None, :], EmpiricalMeasure.dirac(x0[k]))[0]

    def control(t, x, k):
        return coeffs.diffusion(t, x[None, :], EmpiricalMeasure.dirac(x0[k]))[0] @ v.values[k]

    return _successive_approximation([k1, kc], xi, grid, [drift, control], tol, max_iter)


class TestDeterministicLimit:
    def test_zero_drift_stays_at_start(self, unit_kernel, grid_small, additive_model):
        x = solve_deterministic_limit(unit_kernel, additive_model, 0.7, grid_small)
        assert np.all(x == 0.7)

    def test_exponential_growth(self, unit_kernel, grid_fine):
        coeffs = BuiltinLinearMeanField(a=1.0, b=0.0, sigma0=1.0).coefficients()
        x = solve_deterministic_limit(unit_kernel, coeffs, 1.0, grid_fine)
        exact = np.exp(grid_fine.times)
        assert np.abs(x[:, 0] - exact).max() / exact.max() <= 0.01

    def test_picard_agrees_with_stepping(self, unit_kernel, grid_small, linear_model):
        a = solve_deterministic_limit(unit_kernel, linear_model, 1.0, grid_small)
        b = picard_limit(unit_kernel, linear_model, 1.0, grid_small, tol=1e-13)
        assert np.abs(a - b).max() <= 1e-11

    def test_mittag_leffler_oracle(self, grid_fine):
        # x = xi + lam * int (t-s)^(alpha-1)/Gamma(alpha) x ds has solution
        # xi * E_alpha(lam t^alpha); the oracle is an independent series sum
        alpha, lam = 0.75, 0.8
        kern = PowerKernel(hurst=alpha - 0.5, scale=1.0 / gamma_fn(alpha))
        coeffs = BuiltinLinearMeanField(a=lam, b=0.0, sigma0=0.0).coefficients()
        x = solve_deterministic_limit(kern, coeffs, 1.0, grid_fine)

        def mittag_leffler(z, terms=80):
            return sum(z**k / gamma_fn(alpha * k + 1.0) for k in range(terms))

        for i in range(50, 1001, 50):
            exact = mittag_leffler(lam * grid_fine.times[i] ** alpha)
            assert x[i, 0] == pytest.approx(exact, rel=0.02)

    def test_blow_up_guard(self, unit_kernel, grid_small):
        from volterra_mv import CoefficientSet

        def b(t, x, mu):
            return x**3

        def sigma(t, x, mu):
            return np.zeros((*x.shape, 1))

        coeffs = CoefficientSet(b=b, sigma=sigma, d=1, m=1)
        with pytest.raises(BlowUpError):
            solve_deterministic_limit(unit_kernel, coeffs, 50.0, grid_small)


class TestParticles:
    def test_brownian_case_moments(self, unit_kernel):
        # b = 0, sigma = I in d = 2: terminal state is xi + W_T
        grid = TimeGrid(1.0, 25)
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=np.eye(2), d=2, m=2).coefficients()
        ens = simulate_particles(unit_kernel, unit_kernel, coeffs, [0.3, -0.2],
                                 1.0, grid, 100_000, seed=21)
        term = ens.terminal()
        se = 1.0 / np.sqrt(100_000)
        assert np.abs(term.mean(axis=0) - [0.3, -0.2]).max() <= 3 * se
        assert np.abs(term.var(axis=0) - 1.0).max() <= 0.05

    def test_fbm_variance_profile(self, unit_kernel, additive_model):
        grid = TimeGrid(1.0, 100)
        kern = FbmKernel(0.7)
        ens = simulate_particles(unit_kernel, kern, additive_model, 0.0, 1.0,
                                 grid, 20_000, seed=4)
        for t in (0.5, 1.0):
            i = grid.index_of(t)
            oracle = integrate_kernel(kern, t, 0.0, t, 2)
            assert ens.states[:, i, 0].var() == pytest.approx(oracle, rel=0.05)

    def test_eps_zero_collapses_to_limit(self, unit_kernel, grid_small, linear_model):
        ens = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.0,
                                 grid_small, 5, seed=3)
        x0 = solve_deterministic_limit(unit_kernel, linear_model, 1.0, grid_small)
        assert np.abs(ens.states - x0[None]).max() <= 1e-12
        # identical up to SIMD-lane rounding of the vectorized reductions
        assert np.abs(ens.states[0] - ens.states[4]).max() <= 1e-13

    def test_determinism(self, unit_kernel, grid_small, linear_model):
        a = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.5,
                               grid_small, 64, seed=11)
        b = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.5,
                               grid_small, 64, seed=11)
        assert np.array_equal(a.states, b.states)

    def test_eps_coupling_shared_drivers(self, unit_kernel, grid_small, linear_model):
        a = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.5,
                               grid_small, 16, seed=8)
        b = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.05,
                               grid_small, 16, seed=8)
        assert np.array_equal(a.driver_increments, b.driver_increments)

    def test_coupling_linear_in_sqrt_eps(self, unit_kernel, grid_small, additive_model):
        # with b = 0 and state-independent sigma,
        # X^e1 - X^e2 = (sqrt(e1) - sqrt(e2)) * stochastic convolution
        e1, e2 = 0.64, 0.09
        base = simulate_particles(unit_kernel, unit_kernel, additive_model, 0.0, 1.0,
                                  grid_small, 32, seed=13)
        x0 = np.zeros_like(base.states)
        conv = base.states - x0
        a = simulate_particles(unit_kernel, unit_kernel, additive_model, 0.0, e1,
                               grid_small, 32, seed=13)
        b = simulate_particles(unit_kernel, unit_kernel, additive_model, 0.0, e2,
                               grid_small, 32, seed=13)
        np.testing.assert_allclose(
            a.states - b.states, (np.sqrt(e1) - np.sqrt(e2)) * conv, atol=1e-12
        )

    def test_exchangeability(self, unit_kernel, grid_small):
        coeffs = BuiltinLinearMeanField(a=1.0, b=0.0, sigma0=1.0).coefficients()
        ens = simulate_particles(unit_kernel, unit_kernel, coeffs, 1.0, 0.5,
                                 grid_small, 10, seed=17)
        perm = np.random.default_rng(0).permutation(10)
        permuted = simulate_particles(
            unit_kernel, unit_kernel, coeffs, 1.0, 0.5, grid_small, 10, seed=17,
            driver_increments=ens.driver_increments[perm],
        )
        # equality up to SIMD-lane rounding of the vectorized reductions
        np.testing.assert_allclose(permuted.states, ens.states[perm],
                                   rtol=0.0, atol=1e-12)

    def test_mean_field_consistency_single_particle(self, unit_kernel):
        # with no measure coupling, the N = 1 run is the classical scheme
        grid = TimeGrid(1.0, 50)
        a_, eps = 0.8, 0.36
        coeffs = BuiltinLinearMeanField(a=a_, b=0.0, sigma0=1.0).coefficients()
        ens = simulate_particles(unit_kernel, unit_kernel, coeffs, 1.0, eps,
                                 grid, 1, seed=29)
        dw = ens.driver_increments[0, :, 0]
        x = np.empty(51)
        x[0] = 1.0
        for i in range(50):
            x[i + 1] = x[i] + grid.dt * a_ * x[i] + np.sqrt(eps) * dw[i]
        np.testing.assert_allclose(ens.states[0, :, 0], x, atol=1e-10)

    def test_grid_refinement_first_order(self, unit_kernel):
        coeffs = BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients()
        diffs = {}
        for n in (50, 100, 200, 400, 800):
            x = solve_deterministic_limit(unit_kernel, coeffs, 1.0, TimeGrid(1.0, n))
            diffs[n] = x
        errs = {}
        for n in (50, 100, 200, 400):
            coarse = diffs[n][:, 0]
            fine = diffs[2 * n][::2, 0]
            errs[1.0 / n] = np.abs(coarse - fine).max()
        dts = np.log(sorted(errs))
        vals = np.log([errs[k] for k in sorted(errs)])
        slope = np.polyfit(dts, vals, 1)[0]
        assert slope >= 0.9

    def test_random_initial_condition(self, unit_kernel, grid_small, additive_model):
        def xi(n, rng):
            return rng.normal(loc=2.0, size=(n, 1))

        ens = simulate_particles(unit_kernel, unit_kernel, additive_model, xi, 0.0,
                                 grid_small, 4000, seed=31)
        start = ens.states[:, 0, 0]
        assert start.std() > 0.9
        assert abs(start.mean() - 2.0) <= 5 / np.sqrt(4000)

    def test_eps_validation(self, unit_kernel, grid_small, additive_model):
        with pytest.raises(ValueError):
            simulate_particles(unit_kernel, unit_kernel, additive_model, 0.0, 1.5,
                               grid_small, 2, seed=0)

    def test_increment_statistics(self, unit_kernel, grid_small, additive_model):
        ens = simulate_particles(unit_kernel, unit_kernel, additive_model, 0.0, 1.0,
                                 grid_small, 2000, seed=1)
        flat = ens.driver_increments.reshape(-1)
        dt = grid_small.dt
        assert abs(flat.mean()) <= 5 * np.sqrt(dt / flat.size)
        assert abs(flat.var() - dt) <= 5 * dt * np.sqrt(2.0 / flat.size)


class TestStreamedIncrements:
    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2), (2, 3)])
    def test_own_draws_match_injected_increments(self, d, m):
        # 70 steps: two whole blocks of HISTORY_BLOCK steps and a partial one;
        # N d = 80 floats sum their histories in blocks
        grid = TimeGrid(1.0, 70)
        coeffs = BuiltinLinearMeanField(a=-0.5, b=0.3, sigma0=1.0, sigma1=0.2,
                                        d=d, m=m).coefficients()
        args = (PowerKernel(0.3), FbmKernel(0.3), coeffs, np.full(d, 0.1), 0.2, grid, 40)
        own = simulate_particles(*args, seed=5)
        # the pass read its increments a block at a time and kept none
        assert "driver_increments" not in vars(own)
        dw = normal_increments(5, "particles", 40, 70, m, grid.dt)
        given = simulate_particles(*args, seed=5, driver_increments=dw)
        assert np.array_equal(own.states, given.states)
        # a read draws them again, bit for bit
        assert np.array_equal(own.driver_increments, dw)
        assert own.driver_increments is own.driver_increments

    def test_own_draws_run_on_one_lent_scratch(self, monkeypatch):
        # 100 steps are drawn in 4 calls, every one in the scratch the pass's
        # workspace lends; a noise-free pass draws nothing and makes none
        from volterra_mv import rng

        made = []
        real = rng.DrawScratch.__init__
        monkeypatch.setattr(rng.DrawScratch, "__init__",
                            lambda self, *args: made.append(args) or real(self, *args))
        drawn = []
        real_draw = rng._step_increments
        monkeypatch.setattr(rng, "_step_increments",
                            lambda *args: drawn.append(args[-1]) or real_draw(*args))
        grid = TimeGrid(1.0, 100)
        coeffs = BuiltinLinearMeanField(a=-0.5, b=0.3, sigma0=1.0).coefficients()
        simulate_particles(PowerKernel(0.3), FbmKernel(0.3), coeffs, 0.1, 0.2, grid, 300, 5)
        assert len(made) == 1 and len(drawn) == 4
        assert all(scratch is drawn[0] for scratch in drawn)
        made.clear()
        simulate_particles(PowerKernel(0.3), FbmKernel(0.3), coeffs, 0.1, 0.0, grid, 300, 5)
        assert made == []

    def test_controlled_own_draws_match_injected_increments(self, unit_kernel, grid_small,
                                                            linear_model):
        v = ControlPath.constant(grid_small, 0.4)
        args = (unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.3, v, grid_small, 64)
        own = simulate_controlled(*args, seed=2)
        dw = normal_increments(2, "particles", 64, grid_small.n_steps, 1, grid_small.dt)
        given = simulate_controlled(*args, seed=2, driver_increments=dw)
        assert np.array_equal(own.states, given.states)
        assert np.array_equal(own.driver_increments, dw)

    @pytest.mark.parametrize("draws", [False, True], ids=["given", "drawn"])
    @pytest.mark.parametrize("n", [2, 33, 400])
    @pytest.mark.parametrize("n_particles", [1, 63, 64, 2000])
    def test_pass_bytes_are_what_a_pass_allocates(self, n_particles, n, draws):
        # the kept states, the largest block of increments the march reads,
        # the history buffers it hands back to its workspace and the draw
        # scratch the workspace lends, with the tail indices of one block,
        # on average 2 exp(-2) of its draws.  Given increments are particle
        # major, so each block the march reads is a copy
        from volterra_mv import rng

        grid = TimeGrid(1.0, n)
        coeffs = BuiltinLinearMeanField(a=-0.5, b=0.3, sigma0=1.0).coefficients()
        d, m = coeffs.d, coeffs.m
        workspace = kernels.Workspace()
        if draws:
            source = solvers._drawn_blocks(5, "particles", n_particles, grid, m, workspace)
        else:
            dw = np.ascontiguousarray(normal_increments(5, "particles", n_particles, n, m, grid.dt))
            source = solvers._given_blocks(dw)
        block_bytes = []

        def reading(s0, s1):
            block = source(s0, s1)
            block_bytes.append(block.nbytes)
            return block

        states = np.empty((n_particles, n + 1, d))

        def record(i, x_i):
            states[:, i] = x_i

        solvers._simulate(ConstantKernel(1.0), PowerKernel(0.3), None, coeffs, 0.1, grid,
                          n_particles, 5, noise_scale=0.3, blocks=reading, fold=record,
                          workspace=workspace)
        held = states.nbytes + max(block_bytes)
        held += sum(b.nbytes for buffers in workspace._free for b in buffers if b is not None)
        if draws:
            scratch = workspace._draws
            held += sum(a.nbytes for a in vars(scratch).values() if isinstance(a, np.ndarray))
            held += 8 * int(2 * rng._EXP_M2 * scratch.size)
        assert solvers.pass_bytes(n_particles, n, d, m, n + 1, draws=draws) == held


class TestFoldContract:
    # the march holds only its current state slab and hands each node's new
    # slab to its fold; a path is what a recording fold keeps

    def test_fold_may_keep_every_slab(self):
        grid = TimeGrid(1.0, 70)
        coeffs = BuiltinLinearMeanField(a=-0.5, b=0.3, sigma0=1.0, sigma1=0.2,
                                        d=2, m=2).coefficients()
        k1, k2, xi = PowerKernel(0.3), FbmKernel(0.3), np.array([0.1, -0.2])
        kept = []
        terminal = solvers._simulate(
            k1, k2, None, coeffs, xi, grid, 40, 5, noise_scale=float(np.sqrt(0.2)),
            blocks=solvers._drawn_blocks(5, "particles", 40, grid, 2),
            fold=lambda i, x_i: kept.append((i, x_i)))
        assert [i for i, _ in kept] == list(range(grid.n_steps + 1))
        # no later step wrote over a kept slab
        want = simulate_particles(k1, k2, coeffs, xi, 0.2, grid, 40, seed=5).states
        assert np.array_equal(np.stack([x_i for _, x_i in kept], axis=1), want)
        assert terminal.shape == (40, 2)
        assert np.array_equal(terminal, want[:, -1])

    def test_blow_up_is_reported_alike_with_and_without_a_path(self):
        from volterra_mv import CoefficientSet, Model
        from volterra_mv.fluctuations import _folded_pass
        from volterra_mv.kernels import Workspace

        def b(t, x, mu):
            return 6.0 * x**3 + mu.mean()[None, :]

        def sigma(t, x, mu):
            return np.ones((*x.shape, 1))

        grid = TimeGrid(1.0, 50)
        model = Model(k1=ConstantKernel(1.0), k2=PowerKernel(0.3),
                      coeffs=CoefficientSet(b=b, sigma=sigma, d=1, m=1))
        dw = normal_increments(2, "particles", 200, grid.n_steps, 1, grid.dt)
        with pytest.raises(BlowUpError) as kept:
            simulate_particles(model.k1, model.k2, model.coeffs, 0.0, 1.0, grid, 200,
                               seed=2, driver_increments=dw)
        with pytest.raises(BlowUpError) as folded:
            _folded_pass(model, 0.0, 1.0, grid, 2, dw, lambda i, x_i: np.abs(x_i[:, 0]),
                         Workspace())
        assert 1 < kept.value.step < grid.n_steps
        assert folded.value.step == kept.value.step
        assert folded.value.magnitude == kept.value.magnitude


class TestGuard:
    # the guard reads max |x| as max(max x, -min x), without an |x| copy

    @pytest.mark.parametrize("values", [[3.0, -2e12, 5.0], [-1.0, 2e12], [np.inf, -1.0],
                                        [-np.inf, 1.0], [1.0, np.nan, -3e12],
                                        [np.inf, np.nan, -np.inf], [-0.0, 2e12]])
    def test_magnitude_is_the_largest_absolute_value(self, values):
        x = np.array(values)[:, None]
        with pytest.raises(BlowUpError) as err:
            solvers._guard(x, 7)
        assert err.value.step == 7
        want = float(np.max(np.abs(x)))
        assert np.array_equal(err.value.magnitude, want, equal_nan=True)

    def test_quiet_below_the_guard(self):
        solvers._guard(np.array([[-1e12], [1e12], [-0.0]]), 3)
        solvers._guard(np.empty((0, 2)), 3)

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("jump", [31, 32, 33])
    def test_blow_up_on_a_block_boundary_keeps_its_step_and_magnitude(self, monkeypatch,
                                                                      jump, d, m):
        # node `jump` leaves the guard, about a block of HISTORY_BLOCK = 32
        # steps of the increments that the pass draws for itself; a run
        # past the guard records the nodes the error must name
        grid = TimeGrid(1.0, 50)
        kick = 1e14 / grid.dt

        def b(t, x, mu):
            return np.where(x < 0.0, -kick, kick) if t >= grid.times[jump - 1] else 0.0 * x

        def sigma(t, x, mu):
            return np.broadcast_to(np.eye(d, m), (*x.shape, m)).copy()

        from volterra_mv import CoefficientSet

        args = (ConstantKernel(1.0), PowerKernel(0.3), CoefficientSet(b=b, sigma=sigma, d=d, m=m),
                np.zeros(d), 0.5, grid, 80, 3)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "OVERFLOW_GUARD", np.inf)
            states = simulate_particles(*args).states
        peaks = np.abs(states).max(axis=(0, 2))
        assert np.all(peaks[:jump] <= solvers.OVERFLOW_GUARD) and peaks[jump] > 1e13
        with pytest.raises(BlowUpError) as err:
            simulate_particles(*args)
        assert err.value.step == jump
        assert err.value.magnitude == peaks[jump]


def _blas_count():
    return kernels._openblas_threads()[0]()


@pytest.fixture
def two_blas_threads():
    """The caller runs two BLAS threads, and gets its own count back."""
    if kernels._openblas_threads() is None:
        pytest.skip("numpy bundles no scipy-openblas here")
    before = kernels._set_blas_threads(2)
    try:
        if _blas_count() != 2:
            pytest.skip("OpenBLAS does not take a second thread here")
        yield
    finally:
        kernels._set_blas_threads(before)


class TestBlasThreads:
    # a march narrower than BLAS_THREADED_WIDTH pushes on one BLAS thread and
    # gives the caller's count back on every exit; a wide one keeps it

    @pytest.mark.parametrize("n_particles, inside", [(50, 1), (BLAS_THREADED_WIDTH, 2)])
    def test_fold_reads_the_count_of_the_march(self, two_blas_threads, n_particles, inside):
        grid = TimeGrid(1.0, 5)
        coeffs = BuiltinLinearMeanField(a=-1.0, b=0.5, sigma1=0.3).coefficients()
        seen = []
        solvers._simulate(ConstantKernel(1.0), PowerKernel(0.3), None, coeffs, 1.0, grid,
                          n_particles, 3, noise_scale=0.1,
                          blocks=solvers._drawn_blocks(3, "particles", n_particles, grid, 1),
                          fold=lambda i, x: seen.append(_blas_count()))
        # node 0 is folded before the march starts
        assert seen == [2] + [inside] * grid.n_steps
        assert _blas_count() == 2

    @pytest.mark.parametrize("n_paths, inside", [(7, 1), (BLAS_THREADED_WIDTH, 2)])
    def test_linear_march_pushes_on_the_count_of_its_width(self, two_blas_threads, monkeypatch,
                                                           n_paths, inside):
        grid = TimeGrid(1.0, 5)
        coeffs = BuiltinLinearMeanField(a=-1.0, b=0.5, sigma1=0.3).coefficients()
        x0 = solve_deterministic_limit(ConstantKernel(1.0), coeffs, 1.0, grid)
        drivers = normal_increments(5, "particles", n_paths, grid.n_steps, 1, grid.dt)
        seen = []
        push = kernels.History.push
        monkeypatch.setattr(kernels.History, "push",
                            lambda self, h: seen.append(_blas_count()) or push(self, h))
        solvers._linear_march(ConstantKernel(1.0), PowerKernel(0.3), coeffs, x0, grid, drivers,
                              1.0, mean_field=True)
        assert seen == [inside] * (2 * grid.n_steps)
        assert _blas_count() == 2

    def test_resolvent_pushes_on_one_thread(self, two_blas_threads, monkeypatch):
        seen = []
        push = kernels.History.push
        monkeypatch.setattr(kernels.History, "push",
                            lambda self, h: seen.append(_blas_count()) or push(self, h))
        resolvent(GridKernel.from_kernel(PowerKernel(0.3), TimeGrid(1.0, 40)))
        assert seen == [1] * 40
        assert _blas_count() == 2

    def test_caller_count_is_back_after_a_blow_up(self, two_blas_threads):
        from volterra_mv import CoefficientSet

        def b(t, x, mu):
            return x**3

        def sigma(t, x, mu):
            return np.zeros((*x.shape, 1))

        coeffs = CoefficientSet(b=b, sigma=sigma, d=1, m=1)
        seen = []
        with pytest.raises(BlowUpError):
            solvers._simulate(ConstantKernel(1.0), None, None, coeffs, 50.0, TimeGrid(1.0, 40),
                              1, 0, fold=lambda i, x: seen.append(_blas_count()))
        assert seen[1:] and set(seen[1:]) == {1}
        assert _blas_count() == 2

    def test_helper_does_nothing_without_the_symbols(self, monkeypatch):
        real = kernels._openblas_threads()
        outside = real[0]() if real else None
        monkeypatch.setattr(kernels, "_openblas_threads", lambda: None)
        assert kernels._set_blas_threads(1) is None
        with kernels._one_blas_thread_below(1):
            inside = real[0]() if real else None
        path = solve_deterministic_limit(ConstantKernel(1.0),
                                         BuiltinLinearMeanField(a=-1.0).coefficients(), 1.0,
                                         TimeGrid(1.0, 5))
        assert path.shape == (6, 1)
        assert inside == outside

    @pytest.mark.parametrize("symbols", [(), ("scipy_openblas_set_num_threads64_",),
                                         ("scipy_openblas_get_num_threads64_",)])
    def test_lookup_needs_both_symbols(self, monkeypatch, symbols):
        import ctypes
        from types import SimpleNamespace

        def lib(path):
            return SimpleNamespace(**{name: lambda *args: 1 for name in symbols})

        monkeypatch.setattr(ctypes, "CDLL", lib)
        assert kernels._openblas_threads.__wrapped__() is None


class TestNoiseTerm:
    def test_scalar_product_is_the_einsum_bit_for_bit(self):
        # every pair of signed zeros, subnormals, infinities, nans and
        # ordinary values: s dw + 0.0 is einsum's 0 + s dw, where the bare
        # product keeps a -0.0
        vals = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                         -5e-324, 1e-200, -1e-200, 1e300, -1e300, 2.5, -3.75])
        si = np.repeat(vals, vals.size)[:, None, None]
        dw = np.tile(vals, vals.size)[:, None]
        with np.errstate(all="ignore"):
            want = np.einsum("ndm,nm->nd", si, dw).reshape(-1)
            got = solvers._noise_term(si, dw, np.empty(vals.size**2))
            bare = si.reshape(-1) * dw.reshape(-1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.array_equal(bare.view(np.uint64), want.view(np.uint64))

    def test_general_term_is_the_einsum(self):
        rng = np.random.default_rng(4)
        si, dw = rng.normal(size=(30, 2, 3)), rng.normal(size=(30, 3))
        got = solvers._noise_term(si, dw, None)
        assert np.array_equal(got, np.einsum("ndm,nm->nd", si, dw).reshape(-1))


class TestControlled:
    def test_zero_control_bitwise(self, unit_kernel, grid_small, linear_model):
        plain = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.25,
                                   grid_small, 50, seed=9)
        controlled = simulate_controlled(
            unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.25,
            ControlPath.zero(grid_small), grid_small, 50, seed=9,
        )
        assert np.array_equal(plain.states, controlled.states)

    def test_constant_control_noise_free(self, unit_kernel, grid_small, additive_model):
        c = 0.7
        ens = simulate_controlled(
            unit_kernel, unit_kernel, unit_kernel, additive_model, 0.4, 0.0,
            ControlPath.constant(grid_small, c), grid_small, 1, seed=2,
        )
        np.testing.assert_allclose(
            ens.states[0, :, 0], 0.4 + c * grid_small.times, atol=1e-12
        )

    def test_singular_control_kernel_endpoint(self, unit_kernel, additive_model):
        # endpoint of int_0^1 (1-s)^(1/4) ds = 0.8
        grid = TimeGrid(1.0, 1000)
        ens = simulate_controlled(
            unit_kernel, unit_kernel, PowerKernel(0.75), additive_model, 0.0, 0.0,
            ControlPath.constant(grid, 1.0), grid, 1, seed=2,
        )
        assert ens.states[0, -1, 0] == pytest.approx(0.8, rel=0.01)

    def test_frozen_law_mode(self, unit_kernel, linear_model):
        grid = TimeGrid(1.0, 400)
        frozen = np.ones((grid.n_steps + 1, 1))
        ens = simulate_controlled(
            unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.0,
            ControlPath.zero(grid), grid, 1, seed=5,
            frozen_path=frozen,
        )
        # drift is x + 0.5 * 1 with the frozen unit-mass law
        exact = 1.5 * np.exp(grid.times) - 0.5
        assert np.abs(ens.states[0, :, 0] - exact).max() <= 0.01 * exact.max()

    def test_frozen_own_law_reproduces_particles(self, unit_kernel, grid_small, linear_model):
        ens = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, 0.25,
                                 grid_small, 60, seed=21)
        frozen = simulate_controlled(
            unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.25,
            ControlPath.zero(grid_small), grid_small, 60, seed=21,
            frozen_path=ens.states,
            driver_increments=ens.driver_increments,
        )
        assert np.array_equal(frozen.states, ens.states)

    def test_frozen_law_shape_check(self, unit_kernel, grid_small, linear_model):
        with pytest.raises(GridMismatchError):
            simulate_controlled(
                unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.1,
                ControlPath.zero(grid_small), grid_small, 2, seed=1,
                frozen_path=np.zeros((3, grid_small.n_steps, 1)),
            )

    def test_mdp_form_matches_pathwise_deviation(self, unit_kernel, grid_small, linear_model):
        # with v = 0 the deviation variable reproduces (X^eps - X^0)/(sqrt(eps) h)
        eps, h = 0.01, 3.0
        x0 = solve_deterministic_limit(unit_kernel, linear_model, 1.0, grid_small)
        dw = normal_increments(12, "particles", 40, grid_small.n_steps, 1, grid_small.dt)
        y = loop_mdp_particles(unit_kernel, unit_kernel, unit_kernel, linear_model,
                               ControlPath.zero(grid_small), x0, dw, grid_small,
                               np.sqrt(eps) * h, 1.0 / h, None)
        x = simulate_particles(unit_kernel, unit_kernel, linear_model, 1.0, eps,
                               grid_small, 40, seed=12, driver_increments=dw)
        implied = x0[None] + np.sqrt(eps) * h * y
        np.testing.assert_allclose(implied, x.states, atol=1e-9)

    def test_mdp_form_converges_to_linearization(self, unit_kernel, grid_small, linear_model):
        # frozen-law deviation dynamics with a shared control: the ensemble
        # mean approaches the library's linearized deterministic solution as
        # the noise prefactor 1/h vanishes
        eps, h = 1e-8, 200.0
        x0 = solve_deterministic_limit(unit_kernel, linear_model, 1.0, grid_small)
        v = ControlPath.constant(grid_small, 1.0)
        dw = normal_increments(19, "particles", 200, grid_small.n_steps, 1, grid_small.dt)
        y = loop_mdp_particles(unit_kernel, unit_kernel, unit_kernel, linear_model, v, x0, dw,
                               grid_small, np.sqrt(eps) * h, 1.0 / h, x0[None])
        psi = solve_controlled_deterministic(
            unit_kernel, unit_kernel, linear_model, 1.0, v, x0,
            "mdp_linearized", grid_small,
        )
        gap = np.abs(y.mean(axis=0) - psi).max()
        assert gap <= 5.0 / (h * np.sqrt(200)) + 1e-6

    def test_grid_mismatch(self, unit_kernel, grid_small, linear_model):
        other = TimeGrid(1.0, 49)
        with pytest.raises(GridMismatchError):
            simulate_controlled(
                unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.1,
                ControlPath.zero(other), grid_small, 2, seed=1,
            )

    @pytest.mark.parametrize("entry", ["particles", "controlled"])
    @pytest.mark.parametrize("n_particles, eps, message", [
        (0, 0.1, "need at least one particle"),
        (4, 1.5, "eps must lie in"),
    ], ids=["no-particles", "eps-above-one"])
    def test_entry_points_refuse_alike(self, unit_kernel, grid_small, linear_model,
                                       entry, n_particles, eps, message):
        # both entry points share one particle pass, and with it its checks
        args = (linear_model, 1.0, eps)
        with pytest.raises(ValueError, match=message):
            if entry == "particles":
                simulate_particles(unit_kernel, unit_kernel, *args, grid_small,
                                   n_particles, seed=1)
            else:
                simulate_controlled(unit_kernel, unit_kernel, unit_kernel, *args,
                                    ControlPath.zero(grid_small), grid_small,
                                    n_particles, seed=1)


class TestControlledDeterministic:
    @pytest.mark.parametrize("entry", ["limit", "skeleton"])
    def test_random_initial_condition_is_refused(self, unit_kernel, grid_small,
                                                 linear_model, entry):
        def xi(n, rng):
            return rng.normal(size=(n, 1))

        x0 = np.ones((grid_small.n_steps + 1, 1))
        with pytest.raises(ValueError, match="deterministic initial condition"):
            if entry == "limit":
                solve_deterministic_limit(unit_kernel, linear_model, xi, grid_small)
            else:
                solve_controlled_deterministic(unit_kernel, unit_kernel, linear_model, xi,
                                               ControlPath.zero(grid_small), x0, "ldp",
                                               grid_small)

    def test_zero_control_recovers_limit(self, unit_kernel, grid_small, linear_model):
        x0 = solve_deterministic_limit(unit_kernel, linear_model, 1.0, grid_small)
        phi = solve_controlled_deterministic(
            unit_kernel, unit_kernel, linear_model, 1.0,
            ControlPath.zero(grid_small), x0, "ldp", grid_small,
        )
        assert np.abs(phi - x0).max() <= 1e-10

    def test_linearized_pure_integration_exact(self, unit_kernel, grid_small, additive_model):
        psi = solve_controlled_deterministic(
            unit_kernel, unit_kernel, additive_model, 0.0,
            ControlPath.constant(grid_small, 1.0),
            np.zeros((grid_small.n_steps + 1, 1)), "mdp_linearized", grid_small,
        )
        np.testing.assert_allclose(psi[:, 0], grid_small.times, atol=1e-14)

    def test_linearized_linear_feedback(self, unit_kernel, grid_fine):
        coeffs = BuiltinLinearMeanField(a=1.0, b=0.0, sigma0=1.0).coefficients()
        x0 = solve_deterministic_limit(unit_kernel, coeffs, 1.0, grid_fine)
        psi = solve_controlled_deterministic(
            unit_kernel, unit_kernel, coeffs, 1.0,
            ControlPath.constant(grid_fine, 1.0), x0, "mdp_linearized", grid_fine,
        )
        exact = np.exp(grid_fine.times) - 1.0
        assert np.abs(psi[:, 0] - exact).max() / exact.max() <= 0.01

    def test_picard_stepping_agree(self, unit_kernel, grid_small, linear_model):
        rng = np.random.default_rng(3)
        v = ControlPath(grid=grid_small, values=rng.normal(size=(50, 1)))
        x0 = solve_deterministic_limit(unit_kernel, linear_model, 1.0, grid_small)
        a = picard_controlled(unit_kernel, unit_kernel, linear_model, 1.0, v, x0, grid_small)
        b = solve_controlled_deterministic(unit_kernel, unit_kernel, linear_model, 1.0,
                                           v, x0, "ldp", grid_small)
        assert np.abs(a - b).max() <= 1e-11


class TestControlPath:
    def test_energy_definition(self, grid_small):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(50, 2))
        ctrl = ControlPath(grid=grid_small, values=vals)
        assert ctrl.energy == pytest.approx(0.5 * np.sum(vals**2) * grid_small.dt)
        assert ctrl.energy >= 0.0
