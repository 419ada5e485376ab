import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

from volterra_mv import (
    BlowUpError,
    BuiltinLinearMeanField,
    ConstantKernel,
    ControlPath,
    CustomKernel,
    EmpiricalMeasure,
    FbmKernel,
    Halfspace,
    Model,
    PowerKernel,
    RankDeficiencyError,
    RateProblem,
    TimeGrid,
    ldp_rate,
    mdp_rate,
    minimize_rate_endpoint,
    simulate_controlled,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
    tail_probability_probe,
)
from volterra_mv import rates, rng
from volterra_mv.rng import normal_increments

UNIT = ConstantKernel(1.0)


def _coeffs(a=0.0, b=0.0, sigma0=1.0):
    return BuiltinLinearMeanField(a=a, b=b, sigma0=sigma0).coefficients()


def descent_rate(problem, max_iter):
    """Oracle for the direct inversion: plain gradient descent on the squared
    defect |C v - g|^2 of the dense control system, from v = 0 with step
    1 / |C|_2^2, stopped when the gradient is negligible; returns the energy."""
    c, g, _ = rates._control_system(problem)
    step = 1.0 / max(float(np.linalg.norm(c, ord=2)) ** 2, 1e-12)
    v = np.zeros(c.shape[1])
    for _ in range(max_iter):
        grad = c.T @ (c @ v - g)
        v -= step * grad
        if float(np.linalg.norm(grad)) <= 1e-14 * (1.0 + float(np.linalg.norm(g))):
            break
    return ControlPath(grid=problem.grid, values=v.reshape(problem.grid.n_steps, -1)).energy


# (kernels, sigma1, a, level, rate): ldp rates with sigma(x) = 1 + sigma1 x,
# n = 30, xi = 0, b = 0, recorded from the penalty-continuation minimizer that
# the Gauss-Newton iteration replaced.  "constant": k1 = kc = 1; "rough":
# k1 = PowerKernel(0.3), kc = FbmKernel(0.3).
SIGMA1_SWEEP = [
    ("constant", 0.5, -1.0, 1.0, 0.708076635318028),
    ("constant", 0.5, -1.0, 2.0, 2.0690480179496706),
    ("constant", 0.5, 1.0, 1.0, 0.1272010359227151),
    ("constant", 0.5, 1.0, 2.0, 0.41338082921289704),
    ("constant", 1.0, -1.0, 1.0, 0.5172620044874177),
    ("constant", 1.0, -1.0, 2.0, 1.3920555299632265),
    ("constant", 1.0, 1.0, 1.0, 0.10334520730322426),
    ("constant", 1.0, 1.0, 2.0, 0.3012601995046484),
    ("rough", 0.5, -1.0, 1.0, 0.8150399078998688),
    ("rough", 0.5, -1.0, 2.0, 2.3643822091919207),
    ("rough", 0.5, 1.0, 1.0, 0.06508757900990683),
    ("rough", 0.5, 1.0, 2.0, 0.21287748696480993),
    ("rough", 1.0, -1.0, 1.0, 0.5910955522979802),
    ("rough", 1.0, -1.0, 2.0, 1.5793311777524424),
    ("rough", 1.0, 1.0, 1.0, 0.05321937174120248),
    ("rough", 1.0, 1.0, 2.0, 0.15581290559889474),
]


def dense_sensitivity(mode, k1, kc, coeffs, x0_path, path, grid, normal):
    """Oracle for the backward adjoint sweep of rates._terminal_sensitivity:
    the adjoint of delta_x = L delta_x + C delta_v against <normal, x_T>, by
    one dense ((n+1)d)^2 transposed triangular solve."""
    n, d = grid.n_steps, coeffs.d
    w1 = k1.average_weights(grid)
    wc = kc.average_weights(grid)
    ref = x0_path if mode == "mdp" else path
    grads, sig = [], []
    for k in range(n):
        mu = EmpiricalMeasure.dirac(x0_path[k])
        grads.append(coeffs.drift_gradient(grid.times[k], ref[k][None, :], mu)[0])
        sig.append(coeffs.diffusion(grid.times[k], ref[k][None, :], mu)[0])
    size = (n + 1) * d
    lmat = np.zeros((size, size))
    lmat[:, : n * d] = grid.dt * np.einsum("ik,kab->iakb", w1, np.array(grads)).reshape(size, n * d)
    rhs = np.zeros(size)
    rhs[n * d :] = normal
    q = solve_triangular(np.eye(size) - lmat, rhs, lower=True, trans="T").reshape(n + 1, d)
    return np.einsum("kdm,kd->km", np.array(sig), grid.dt * np.einsum("ik,id->kd", wc, q)).ravel()


class TestMdpRate:
    def test_zero_target(self):
        grid = TimeGrid(1.0, 100)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=_coeffs(),
                           grid=grid, x0_path=np.zeros((101, 1)),
                           target=np.zeros((101, 1)))
        sol = mdp_rate(prob)
        assert sol.rate == pytest.approx(0.0, abs=1e-20)
        assert np.abs(sol.v_star.values).max() <= 1e-10

    def test_pure_integration(self):
        grid = TimeGrid(1.0, 500)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=_coeffs(),
                           grid=grid, x0_path=np.zeros((501, 1)),
                           target=grid.times[:, None])
        sol = mdp_rate(prob)
        assert sol.rate == pytest.approx(0.5, abs=1e-8)
        assert sol.attained

    def test_drift_feedback_unit_control(self):
        # psi = e^t - 1 solves psi' = psi + v with v = 1
        grid = TimeGrid(1.0, 1000)
        coeffs = _coeffs(a=1.0)
        x0 = solve_deterministic_limit(UNIT, coeffs, 1.0, grid)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=coeffs, grid=grid,
                           x0_path=x0, target=(np.exp(grid.times) - 1.0)[:, None])
        sol = mdp_rate(prob)
        assert np.abs(sol.v_star.values - 1.0).max() <= 0.01
        assert sol.rate == pytest.approx(0.5, abs=0.01)
        assert sol.residual <= 1e-3 * np.exp(1.0)

    def test_quadratic_scaling(self):
        grid = TimeGrid(1.0, 300)
        base = grid.times[:, None] * (1.0 - grid.times[:, None])
        args = dict(mode="mdp", k1=UNIT, kc=UNIT, coeffs=_coeffs(a=0.3),
                    grid=grid, x0_path=np.zeros((301, 1)))
        lam1 = mdp_rate(RateProblem(target=base, **args)).rate
        for c in (2.0, 3.0):
            lam_c = mdp_rate(RateProblem(target=c * base, **args)).rate
            assert abs(lam_c - c * c * lam1) <= 1e-10 * max(1.0, lam_c)

    def test_rank_deficiency(self):
        grid = TimeGrid(1.0, 50)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=_coeffs(sigma0=0.0),
                           grid=grid, x0_path=np.zeros((51, 1)),
                           target=grid.times[:, None])
        with pytest.raises(RankDeficiencyError):
            mdp_rate(prob)

    def test_empty_diffusion_is_rank_deficient(self):
        # m = 0: the diffusion has no singular value, so no control reaches the target
        grid = TimeGrid(1.0, 50)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=UNIT,
                           coeffs=BuiltinLinearMeanField(m=0).coefficients(),
                           grid=grid, x0_path=np.zeros((51, 1)),
                           target=grid.times[:, None])
        with pytest.raises(RankDeficiencyError):
            mdp_rate(prob)

    def test_regularized_rank_deficient(self):
        grid = TimeGrid(1.0, 50)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=_coeffs(sigma0=0.0),
                           grid=grid, x0_path=np.zeros((51, 1)),
                           target=grid.times[:, None], lam_reg=1e-8)
        sol = mdp_rate(prob)
        assert not sol.attained
        assert sol.residual > 0.1

    def test_auto_ridge_for_vanishing_lead_weights(self):
        # a control kernel that vanishes on the first subdiagonal cells
        grid = TimeGrid(1.0, 50)
        dt = grid.dt

        def lagged(t, s):
            return np.where(t - s >= 2 * dt, 1.0, 0.0)

        kc = CustomKernel(fn=lagged)
        prob = RateProblem(mode="mdp", k1=UNIT, kc=kc, coeffs=_coeffs(), grid=grid,
                           x0_path=np.zeros((51, 1)), target=grid.times[:, None])
        sol = mdp_rate(prob)
        assert sol.lambda_used > 0.0
        assert np.isfinite(sol.rate)

    def test_target_anchor_validation(self):
        grid = TimeGrid(1.0, 20)
        with pytest.raises(ValueError):
            RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=_coeffs(), grid=grid,
                        x0_path=np.zeros((21, 1)), target=np.ones((21, 1)))


class TestLdpRate:
    def test_uncontrolled_limit_has_zero_rate(self):
        grid = TimeGrid(1.0, 200)
        coeffs = _coeffs(a=1.0, b=0.5)
        x0 = solve_deterministic_limit(UNIT, coeffs, 1.0, grid)
        prob = RateProblem(mode="ldp", k1=UNIT, kc=UNIT, coeffs=coeffs, grid=grid,
                           x0_path=x0, target=x0)
        sol = ldp_rate(prob)
        assert sol.rate <= 1e-16
        assert sol.attained

    def test_linear_ramp_schilder_value(self):
        grid = TimeGrid(1.0, 500)
        prob = RateProblem(mode="ldp", k1=UNIT, kc=UNIT, coeffs=_coeffs(), grid=grid,
                           x0_path=np.zeros((501, 1)), target=grid.times[:, None])
        sol = ldp_rate(prob)
        assert sol.rate == pytest.approx(0.5, abs=1e-10)

    def test_round_trip_many_controls(self):
        grid = TimeGrid(1.0, 200)
        coeffs = _coeffs(a=1.0, b=0.5)
        x0 = solve_deterministic_limit(UNIT, coeffs, 1.0, grid)
        rng = np.random.default_rng(77)
        for _ in range(20):
            v = ControlPath(grid=grid, values=rng.normal(size=(200, 1)))
            target = solve_controlled_deterministic(UNIT, UNIT, coeffs, 1.0, v, x0,
                                                    "ldp", grid)
            prob = RateProblem(mode="ldp", k1=UNIT, kc=UNIT, coeffs=coeffs,
                               grid=grid, x0_path=x0, target=target)
            sol = ldp_rate(prob)
            assert sol.rate <= v.energy + 1e-9
            assert abs(sol.rate - v.energy) <= 1e-6
            assert sol.residual <= 1e-8

    def test_descent_cross_check(self):
        grid = TimeGrid(1.0, 60)
        coeffs = _coeffs(a=0.5)
        x0 = solve_deterministic_limit(UNIT, coeffs, 1.0, grid)
        v = ControlPath.constant(grid, 0.8)
        target = solve_controlled_deterministic(UNIT, UNIT, coeffs, 1.0, v, x0,
                                                "ldp", grid)
        prob = RateProblem(mode="ldp", k1=UNIT, kc=UNIT, coeffs=coeffs, grid=grid,
                           x0_path=x0, target=target)
        direct = ldp_rate(prob)
        descent = descent_rate(prob, max_iter=20000)
        assert descent == pytest.approx(direct.rate, rel=1e-3)


@pytest.mark.parametrize("d, m", [(1, 1), (2, 3)])
def test_solve_bytes_are_the_dense_system(d, m):
    # the larger of _control_system's c beside the two weight matrices it
    # unpacks and, in the solve, c beside its copy or, with a ridge, beside
    # the normal matrix, the scaled identity and their sum
    grid = TimeGrid(1.0, 12)
    coeffs = BuiltinLinearMeanField(a=0.2, b=0.1, sigma0=np.eye(d, m), d=d, m=m).coefficients()
    x0 = solve_deterministic_limit(UNIT, coeffs, np.ones(d), grid)
    problem = RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=coeffs, grid=grid, x0_path=x0,
                          target=np.zeros((13, d)))
    c, _, _ = rates._control_system(problem)
    assert c.shape == (12 * d, 12 * m)
    system = 2 * UNIT.average_weights(grid).nbytes + c.nbytes
    assert rates.solve_bytes(12, d, m, ridge=False) == max(system, 2 * c.nbytes)
    normal, identity = c.T @ c, 0.5 * np.eye(c.shape[1])
    ridge = c.nbytes + normal.nbytes + identity.nbytes + (normal + identity).nbytes
    assert rates.solve_bytes(12, d, m, ridge=True) == max(system, ridge)


class TestMultiDimensional:
    def _setup(self):
        grid = TimeGrid(1.0, 100)
        a = np.array([[0.2, 0.5], [-0.4, 0.1]])
        s0 = np.array([[1.0, 0.2], [0.0, 0.8]])
        coeffs = BuiltinLinearMeanField(a=a, b=0.1, sigma0=s0, d=2, m=2).coefficients()
        x0 = solve_deterministic_limit(UNIT, coeffs, [1.0, -1.0], grid)
        rng = np.random.default_rng(0)
        v = ControlPath(grid=grid, values=rng.normal(size=(100, 2)))
        return grid, coeffs, x0, v

    def test_mdp_round_trip_2d(self):
        grid, coeffs, x0, v = self._setup()
        target = solve_controlled_deterministic(UNIT, UNIT, coeffs, [1.0, -1.0], v,
                                                x0, "mdp_linearized", grid)
        sol = mdp_rate(RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=coeffs,
                                   grid=grid, x0_path=x0, target=target))
        assert abs(sol.rate - v.energy) <= 1e-9
        assert sol.residual <= 1e-9

    def test_ldp_round_trip_2d(self):
        grid, coeffs, x0, v = self._setup()
        target = solve_controlled_deterministic(UNIT, UNIT, coeffs, [1.0, -1.0], v,
                                                x0, "ldp", grid)
        sol = ldp_rate(RateProblem(mode="ldp", k1=UNIT, kc=UNIT, coeffs=coeffs,
                                   grid=grid, x0_path=x0, target=target))
        assert abs(sol.rate - v.energy) <= 1e-9
        assert sol.residual <= 1e-9

    def test_minimize_2d_diagonal_event(self):
        # reaching <n, psi_T> = 1 under psi' = v costs level^2 / (2 T |n|^2)
        grid = TimeGrid(1.0, 100)
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=np.eye(2),
                                        d=2, m=2).coefficients()
        model = Model(k1=UNIT, k2=UNIT, coeffs=coeffs)
        sol = minimize_rate_endpoint(model, "mdp", Halfspace([1.0, 1.0], 1.0),
                                     grid, xi=[0.0, 0.0])
        assert sol.rate == pytest.approx(0.25, abs=1e-6)


class TestMinimizeEndpoint:
    @pytest.mark.parametrize("normal", [[0.0], [0.0, 0.0], [-0.0]])
    def test_zero_event_normal_is_refused(self, normal):
        # {<0, x> >= level} is empty or everything, so no rate means anything
        with pytest.raises(ValueError, match="all zero"):
            Halfspace(normal, 1.0)

    def test_already_inside_event(self):
        grid = TimeGrid(1.0, 50)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        sol = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], -1.0), grid, xi=0.0)
        assert sol.rate == 0.0
        assert sol.attained
        assert sol.iterations == 0
        assert sol.diagnostics["terminal_value"] == 0.0  # the uncontrolled endpoint

    def test_mdp_pure_integration_levels(self):
        grid = TimeGrid(1.0, 200)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        one = minimize_rate_endpoint(model, "mdp", Halfspace([1.0], 1.0), grid, xi=0.0)
        assert one.rate == pytest.approx(0.5, abs=1e-6)
        # optimal control is constant (Cauchy-Schwarz)
        assert np.ptp(one.v_star.values) <= 1e-6
        two = minimize_rate_endpoint(model, "mdp", Halfspace([1.0], 2.0), grid, xi=0.0)
        assert two.rate == pytest.approx(2.0, abs=1e-6)

    def test_monotone_in_event(self):
        grid = TimeGrid(1.0, 100)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=0.4))
        rates = [
            minimize_rate_endpoint(model, "ldp", Halfspace([1.0], lvl), grid, xi=0.0).rate
            for lvl in (0.5, 1.0, 1.5)
        ]
        assert rates[0] <= rates[1] + 1e-12 <= rates[2] + 2e-12

    def test_deterministic_given_init(self):
        grid = TimeGrid(1.0, 60)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=0.3))
        a = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], 1.2), grid, xi=0.0)
        b = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], 1.2), grid, xi=0.0)
        assert np.array_equal(a.v_star.values, b.v_star.values)

    @pytest.mark.parametrize("a, rate", [(0.0, 0.5), (0.4, 0.33173865824737897)])
    def test_ldp_affine_rates(self, a, rate):
        # linear drift and constant sigma: the terminal value is affine in v,
        # so the first linear guess on the first ray is the minimizer
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=a))
        sol = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], 1.0), grid, xi=0.0)
        assert sol.attained
        assert sol.rate == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("k1, k2", [(UNIT, PowerKernel(0.3)),
                                        (PowerKernel(0.3), FbmKernel(0.3))],
                             ids=["constant-power", "power-fbm"])
    def test_default_ldp_control_enters_under_the_noise_kernel(self, k1, k2):
        # with A = B = 0, sigma = 1 and xi = 0, x_T = sqrt(eps) sum_k w2[n, k] dW_k
        # is Gaussian with variance eps dt sum_k w2[n, k]^2, so the event
        # x_T >= 1 has the exact grid rate 1 / (2 dt sum_k w2[n, k]^2): the
        # control of the default ldp rate enters under k2, not under k1
        grid = TimeGrid(1.0, 200)
        model = Model(k1=k1, k2=k2, coeffs=_coeffs())
        sol = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], 1.0), grid, xi=0.0)
        w2 = k2.average_weights(grid)[grid.n_steps]
        assert sol.rate == pytest.approx(1.0 / (2.0 * grid.dt * float(w2 @ w2)), rel=1e-12)

    def test_mdp_takes_one_iteration(self):
        # the sensitivity does not depend on the path in mdp mode
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=0.4))
        sol = minimize_rate_endpoint(model, "mdp", Halfspace([1.0], 1.0), grid, xi=0.0)
        assert sol.attained and sol.iterations == 1
        assert sol.rate == pytest.approx(0.33173865824737897, rel=1e-12)

    @pytest.mark.parametrize("kernels, sigma1, a, level, parent", SIGMA1_SWEEP)
    def test_state_dependent_sigma_sweep(self, kernels, sigma1, a, level, parent):
        # the Gauss-Newton fixed point may only be cheaper than the old rate
        grid = TimeGrid(1.0, 30)
        k1, kc = ((UNIT, UNIT) if kernels == "constant"
                  else (PowerKernel(0.3), FbmKernel(0.3)))
        coeffs = BuiltinLinearMeanField(a=a, b=0.0, sigma0=1.0, sigma1=sigma1).coefficients()
        model = Model(k1=k1, k2=kc, coeffs=coeffs)
        event = Halfspace([1.0], level)
        sol = minimize_rate_endpoint(model, "ldp", event, grid, xi=0.0, kc=kc)
        assert sol.attained
        assert sol.diagnostics["terminal_value"] >= level
        assert sol.rate <= parent * (1.0 + 1e-9)
        x0 = solve_deterministic_limit(k1, coeffs, 0.0, grid)
        path = solve_controlled_deterministic(k1, kc, coeffs, 0.0, sol.v_star, x0, "ldp", grid)
        r = rates._terminal_sensitivity("ldp", k1, kc, coeffs, x0, path, grid, event.normal)
        v = sol.v_star.values.ravel()
        assert r @ v / (np.linalg.norm(r) * np.linalg.norm(v)) >= 1.0 - 1e-8

    def test_benchmark_reference_rates(self):
        # the rate-min benchmark model; 0.13128465948145476 (n = 20) is the
        # benchmark's own reference, checked there at 1e-6 relative
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=1.0, b=0.5, sigma0=1.0, sigma1=0.5).coefficients())
        event = Halfspace([1.0], 1.0)
        small = minimize_rate_endpoint(model, "ldp", event, TimeGrid(1.0, 20), xi=0.0)
        assert small.attained
        assert small.rate == pytest.approx(0.13128465948145476, rel=1e-6)
        full = minimize_rate_endpoint(model, "ldp", event, TimeGrid(1.0, 100), xi=0.0)
        assert full.attained
        assert full.rate == pytest.approx(0.12160445264927537, abs=1e-7)

    def test_cap_reports_not_attained(self, monkeypatch):
        # one iteration of one secant trial cannot certify a state-dependent case
        monkeypatch.setattr(rates, "GN_MAX_ITER", 1)
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=-1.0, b=0.0, sigma0=1.0, sigma1=1.0).coefficients())
        sol = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], 2.0), TimeGrid(1.0, 30),
                                     xi=0.0)
        assert not sol.attained
        assert sol.iterations == 1

    @pytest.mark.parametrize("mode", ["ldp", "mdp"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sensitivity_matches_dense_adjoint(self, mode, d):
        grid = TimeGrid(1.0, 40)
        a = 0.7 if d == 1 else np.array([[0.3, -0.5], [0.2, 0.1]])
        s0 = 1.0 if d == 1 else np.array([[1.0, 0.2], [0.0, 0.8]])
        coeffs = BuiltinLinearMeanField(a=a, b=0.2, sigma0=s0, sigma1=0.4,
                                        d=d, m=d).coefficients()
        k1, kc = PowerKernel(0.3), FbmKernel(0.3)
        x0 = solve_deterministic_limit(k1, coeffs, np.ones(d), grid)
        path = x0 + 0.1 * np.random.default_rng(d).normal(size=x0.shape)
        normal = np.linspace(1.0, -0.5, d)
        got = rates._terminal_sensitivity(mode, k1, kc, coeffs, x0, path, grid, normal)
        want = dense_sensitivity(mode, k1, kc, coeffs, x0, path, grid, normal)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_ray_root_lands_inside_the_event(self):
        # the terminal value lam^2 is convex: secant steps from below stay
        # short of the level, so a gap within tol but positive must not end
        # the search
        tol = 1e-9
        lam, gap, _ = rates._ray_root(lambda lam: (1.0 - lam * lam, None), 0.5, 1.0, tol)
        assert gap == 1.0 - lam * lam
        assert -tol <= gap <= 0.0

    def test_ray_root_halves_past_blow_up(self):
        # gap(lam) = 1 - lam, with the overflow guard tripping beyond lam = 4:
        # the first trial at 100 halves back toward 0 until it is good
        trials = []

        def gap_at(lam):
            trials.append(lam)
            if lam > 4.0:
                raise BlowUpError("overflow", step=1, magnitude=lam)
            return 1.0 - lam, lam

        lam, gap, path = rates._ray_root(gap_at, 100.0, 1.0, 1e-12)
        assert lam == path == 1.0 and gap == 0.0
        assert trials == [100.0, 50.0, 25.0, 12.5, 6.25, 3.125, 1.0]


class TestTailProbe:
    def test_whole_space_event(self):
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], -np.inf),
                                     [0.5], 200, 3, grid, xi=0.0,
                                     with_reference=False)
        cell = res.cells[0]
        assert cell.p_hat == 1.0
        assert cell.normalized_decay == pytest.approx(0.0, abs=1e-12)

    def test_crude_cell_keeps_the_terminal_of_the_full_pass(self):
        grid = TimeGrid(1.0, 70)
        model = Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3), coeffs=BuiltinLinearMeanField(
            a=-0.5, b=0.3, sigma0=1.0, sigma1=0.2).coefficients())
        xi = np.array([0.1])
        got = rates._terminal(model, xi, 0.3, grid, None, 80, 4,
                              rates._drawn_blocks(4, "particles", 80, grid, 1))
        want = simulate_particles(model.k1, model.k2, model.coeffs, xi, 0.3, grid, 80, 4)
        assert np.array_equal(got, want.terminal())

    def test_terminal_pass_holds_one_state_slab(self, traced_peak):
        # the march of a crude cell keeps one (N, d) slab, not N (n+1) d states
        grid = TimeGrid(1.0, 100)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=-0.5))
        xi = np.array([0.1])
        full = traced_peak(lambda: simulate_particles(model.k1, model.k2, model.coeffs, xi,
                                                      0.3, grid, 2000, 4))
        blocks = rates._drawn_blocks(4, "particles", 2000, grid, 1)
        terminal = traced_peak(lambda: rates._terminal(model, xi, 0.3, grid, None, 2000, 4,
                                                       blocks))
        assert full - terminal >= 0.9 * 2000 * (grid.n_steps + 1) * 8

    @pytest.mark.parametrize("method", ["crude", "importance"])
    def test_passes_of_a_probe_share_one_workspace(self, monkeypatch, history_buffers, method):
        # the crude or tagged pass of each cell after the first runs on the
        # history buffers of the one before, and every cell's draws on one
        # scratch; an importance cell's untilted pass keeps its states and
        # runs on buffers of its own, as the minimizer's noise-free marches do
        scratches = []
        real = rng.DrawScratch.__init__

        def counting(self, *args):
            scratches.append(args)
            real(self, *args)

        monkeypatch.setattr(rng.DrawScratch, "__init__", counting)
        grid = TimeGrid(1.0, 70)
        model = Model(k1=UNIT, k2=PowerKernel(0.3), coeffs=_coeffs())
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], 0.5), [0.25, 0.5, 1.0], 80,
                                     3, grid, xi=0.0, with_reference=False, method=method)
        assert len(res.cells) == 3
        history_buffers.clear()
        scratches.clear()
        tail_probability_probe(model, "ldp", Halfspace([1.0], 0.5), [0.25, 0.5, 1.0], 80,
                               3, grid, xi=0.0, with_reference=False, method=method)
        if method == "crude":
            assert history_buffers.count(True) == 2
        assert history_buffers.count(False) == 2 * 2
        assert len(scratches) == 1 + (3 if method == "importance" else 0)

    def test_tagged_pass_shifts_and_weighs_per_block(self):
        # against the whole shifted increments and the log-weights summed at once
        grid = TimeGrid(1.0, 70)
        model = Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3), coeffs=BuiltinLinearMeanField(
            a=-0.5, b=0.3, sigma0=1.0, sigma1=0.2).coefficients())
        xi = np.array([0.1])
        law = simulate_particles(model.k1, model.k2, model.coeffs, xi, 0.3, grid, 50, 6).states
        theta = np.linspace(0.5, 2.0, grid.n_steps)[:, None]
        got, log_w = rates._tagged_terminal(model, xi, 0.3, grid, law, 80, 6, theta)
        dt = grid.dt
        dw = normal_increments(6, "tagged", 80, grid.n_steps, 1, dt) + theta[None] * dt
        want = simulate_controlled(model.k1, model.k2, model.k2, model.coeffs, xi, 0.3,
                                   ControlPath.zero(grid), grid, 80, 6, frozen_path=law,
                                   driver_increments=dw)
        assert np.array_equal(got, want.terminal())
        want_w = 0.5 * dt * float(np.sum(theta * theta)) - np.einsum("nkm,km->n", dw, theta)
        np.testing.assert_allclose(log_w, want_w, rtol=1e-13, atol=1e-13)

    def test_gaussian_closed_form(self):
        # b = 0, sigma = 1, constant kernels: X_T ~ N(0, eps T); the estimated
        # probabilities must match the Gaussian tail within Monte Carlo error
        grid = TimeGrid(1.0, 50)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        n = 100_000
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], 1.0),
                                     [1.0, 0.5, 0.25], n, 17, grid, xi=0.0,
                                     with_reference=False)
        for cell in res.cells:
            exact = norm.sf(1.0 / np.sqrt(cell.eps))
            se = np.sqrt(exact * (1.0 - exact) / n)
            assert cell.p_hat == pytest.approx(exact, abs=4 * se)
            assert cell.resolved
            assert cell.ess == cell.n_hits

    def test_censoring(self):
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], 50.0),
                                     [0.1], 500, 11, grid, xi=0.0,
                                     with_reference=False)
        cell = res.cells[0]
        assert cell.censored
        assert cell.p_hat is None and cell.normalized_decay is None and cell.ess is None

    def test_mdp_decay_within_factor_two_of_rate(self):
        grid = TimeGrid(1.0, 100)
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=1.0, b=0.5, sigma0=1.0).coefficients())
        res = tail_probability_probe(model, "mdp", Halfspace([1.0], 1.0),
                                     [1e-3], 100_000, 23, grid, xi=1.0,
                                     h_beta=0.25)
        cell = res.cells[0]
        assert not cell.censored
        assert res.rate_reference > 0
        assert 0.5 <= cell.normalized_decay / res.rate_reference <= 2.0

    def test_mode_validation(self):
        grid = TimeGrid(1.0, 10)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        with pytest.raises(ValueError):
            tail_probability_probe(model, "wat", Halfspace([1.0], 1.0), [0.5],
                                   10, 0, grid)
        with pytest.raises(ValueError):
            tail_probability_probe(model, "mdp", Halfspace([1.0], 1.0), [0.5],
                                   10, 0, grid, h_beta=0.7)

    def test_mdp_mode_refuses_eps_zero(self):
        # h(eps) = eps^-h_beta has no value at eps = 0, where ldp mode's
        # noiseless cell is fine
        grid = TimeGrid(1.0, 10)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            tail_probability_probe(model, "mdp", Halfspace([1.0], 1.0), [0.0, 0.5],
                                   10, 0, grid, xi=0.0)
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], 1.0), [0.0, 0.5],
                                     10, 0, grid, xi=0.0, with_reference=False)
        assert [cell.eps for cell in res.cells] == [0.0, 0.5]

    def test_importance_gaussian_closed_form(self):
        # the minimizer-tilted probe must match the Gaussian tail within its
        # own reported standard error, down to P ~ 7.7e-13 at eps = 0.02
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], 1.0),
                                     [1.0, 0.5, 0.25, 0.1, 0.02], 50_000, 17, grid,
                                     xi=0.0, method="importance")
        assert res.rate_reference == pytest.approx(0.5, abs=1e-6)
        for cell in res.cells:
            exact = norm.sf(1.0 / np.sqrt(cell.eps))
            assert cell.method == "importance"
            assert cell.resolved
            assert cell.p_hat == pytest.approx(exact, abs=4 * cell.rel_stderr * cell.p_hat)
            assert 0.0 < cell.ess <= cell.n_hits <= 50_000

    def test_importance_agrees_with_crude_on_interacting_model(self):
        # P ~ 1e-3 is within crude reach; the frozen-law tagged particles must
        # not shift the estimate beyond the combined Monte Carlo error
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=1.0, b=0.5))
        event = Halfspace([1.0], 6.0)
        cells = [tail_probability_probe(model, "ldp", event, [0.1], 100_000, 41, grid,
                                        xi=1.0, with_reference=False,
                                        method=method).cells[0]
                 for method in ("crude", "importance")]
        crude, tilted = cells
        assert crude.resolved and tilted.resolved
        assert tilted.rel_stderr < crude.rel_stderr
        combined = np.hypot(crude.rel_stderr * crude.p_hat, tilted.rel_stderr * tilted.p_hat)
        assert abs(tilted.p_hat - crude.p_hat) <= 4 * combined

    def test_importance_deterministic(self):
        grid = TimeGrid(1.0, 20)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=1.0, b=0.5))
        runs = [tail_probability_probe(model, "ldp", Halfspace([1.0], 5.0), [0.1, 0.05],
                                       2_000, 8, grid, xi=1.0, with_reference=False,
                                       method="importance")
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_method_validation(self):
        grid = TimeGrid(1.0, 10)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        with pytest.raises(ValueError):
            tail_probability_probe(model, "ldp", Halfspace([1.0], 1.0), [0.5],
                                   10, 0, grid, method="stratified")
