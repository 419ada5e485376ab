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

    def test_controlled_own_draws_match_injected_increments(self, unit_kernel, grid_small,
                                                            linear_model):
        v = ControlPath.constant(grid_small, 0.4)
        args = (unit_kernel, unit_kernel, unit_kernel, linear_model, 1.0, 0.3, v, grid_small, 64)
        own = simulate_controlled(*args, seed=2)
        dw = normal_increments(2, "particles", 64, grid_small.n_steps, 1, grid_small.dt)
        given = simulate_controlled(*args, seed=2, driver_increments=dw)
        assert np.array_equal(own.states, given.states)
        assert np.array_equal(own.driver_increments, dw)


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
