import numpy as np
import pytest
from scipy.stats import norm

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    ControlPath,
    CustomKernel,
    Halfspace,
    Model,
    PowerKernel,
    RankDeficiencyError,
    RateProblem,
    TimeGrid,
    ldp_rate,
    mdp_rate,
    minimize_rate_endpoint,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
    tail_probability_probe,
)
from volterra_mv import rates

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
    def test_already_inside_event(self):
        grid = TimeGrid(1.0, 50)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        sol = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], -1.0), grid, xi=0.0)
        assert sol.rate == 0.0
        assert sol.attained

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

    def test_line_search_failures_recorded(self):
        # from v = 0 no step of length 1e12 (or any of its 30 halvings) lowers
        # the penalized energy, so every stage stops at its first iteration
        # and only the equality polish moves v: the result is the stages=0 run
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=0.4))
        event = Halfspace([1.0], 1.0)
        stuck = minimize_rate_endpoint(model, "mdp", event, grid, xi=0.0, step=1e12)
        polish = minimize_rate_endpoint(model, "mdp", event, grid, xi=0.0, stages=0)
        assert stuck.diagnostics["line_search_failures"] == [
            {"stage": s, "iteration": 0} for s in range(8)
        ]
        assert polish.diagnostics["line_search_failures"] == []
        assert np.array_equal(stuck.v_star.values, polish.v_star.values)
        assert stuck.rate == polish.rate
        assert stuck.iterations == polish.iterations == 0

    @pytest.mark.parametrize("a, rate", [(0.0, 0.5), (0.4, 0.33173865824737897)])
    def test_line_search_survives_blow_up(self, a, rate):
        # in ldp mode the first trials of length 1e12 trip the overflow guard;
        # they count as no decrease, so the step halves instead of raising
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs(a=a))
        event = Halfspace([1.0], 1.0)
        stuck = minimize_rate_endpoint(model, "ldp", event, grid, xi=0.0, step=1e12)
        polish = minimize_rate_endpoint(model, "ldp", event, grid, xi=0.0, stages=0)
        assert stuck.attained
        assert stuck.diagnostics["line_search_failures"] == [
            {"stage": s, "iteration": 0} for s in range(8)
        ]
        assert np.array_equal(stuck.v_star.values, polish.v_star.values)
        assert stuck.rate == polish.rate == pytest.approx(rate, rel=1e-12)


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

    def test_censoring(self):
        grid = TimeGrid(1.0, 30)
        model = Model(k1=UNIT, k2=UNIT, coeffs=_coeffs())
        res = tail_probability_probe(model, "ldp", Halfspace([1.0], 50.0),
                                     [0.1], 500, 11, grid, xi=0.0,
                                     with_reference=False)
        cell = res.cells[0]
        assert cell.censored
        assert cell.p_hat is None and cell.normalized_decay is None

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
