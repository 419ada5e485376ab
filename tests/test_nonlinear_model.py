"""The paper's small-noise limits on a model that is not linear.

Every acceptance criterion runs ``BuiltinLinearMeanField``, whose measure
derivative is a constant.  Here the drift is

    b(x, mu) = -x + sin(x) / 2 + 0.8 int tanh(y) mu(dy),

with grad_b = -1 + cos(x) / 2 and measure derivative 0.8 sech^2(y), and the
diffusion is sigma = 1 + 0.3 cos(x) or sigma = 1, on the singular kernels
power(0.3) (drift) and fbm(0.3) (noise).  The checks are those of the
acceptance criteria: the declared measure derivative against finite
differences, the fluctuation gap rates of criterion 6, the sqrt(eps) strong
rate of criterion 5 and, with constant sigma, the endpoint LDP rate against
a multi-start SLSQP minimization of the same discrete problem.  Seeds, sizes
and tolerances were fixed before the checks were run.
"""

import numpy as np
import pytest

from volterra_mv import (
    CoefficientSet,
    ControlPath,
    EmpiricalMeasure,
    FbmKernel,
    Halfspace,
    Model,
    PowerKernel,
    TimeGrid,
    clt_gap,
    clt_pair,
    lions_fd_check,
    minimize_rate_endpoint,
    scaling_regression,
    solve_controlled_deterministic,
    solve_deterministic_limit,
    strong_error_vs_eps,
)

EPS = (1e-1, 1e-2, 1e-3, 1e-4)
XI = 1.0


def _coeffs(state_sigma: bool) -> CoefficientSet:
    def drift(t, x, mu):
        return -x + 0.5 * np.sin(x) + 0.8 * (mu.weight_vector() @ np.tanh(mu.points))

    def diffusion(t, x, mu):
        return (1.0 + 0.3 * np.cos(x) if state_sigma else np.ones_like(x))[..., None]

    return CoefficientSet(
        b=drift,
        sigma=diffusion,
        grad_b=lambda t, x, mu: (-1.0 + 0.5 * np.cos(x))[..., None],
        lions_b=lambda t, x, mu, y: 0.8 / np.cosh(np.asarray(y, dtype=float))[..., None] ** 2,
        d=1, m=1,
    )


def _model(state_sigma: bool) -> Model:
    return Model(k1=PowerKernel(0.3), k2=FbmKernel(0.3), coeffs=_coeffs(state_sigma))


SIGMAS = pytest.mark.parametrize("state_sigma", [True, False], ids=["cos-sigma", "unit-sigma"])


def _lions_report(state_sigma, coeffs=None):
    rng = np.random.default_rng(2201)
    mu = EmpiricalMeasure(points=rng.normal(size=(200, 1)))
    coeffs = _coeffs(state_sigma) if coeffs is None else coeffs
    return lions_fd_check(coeffs, 0.3, np.array([0.4]), mu,
                          direction=lambda y: np.sin(y) + 0.5, eps_list=[1e-2, 1e-3, 1e-4, 1e-5])


@SIGMAS
def test_measure_derivative_discrepancy_is_first_order(state_sigma):
    # the difference quotient misses the declared pairing by C eps, with one
    # C to 1% over three decades of eps: the declared derivative is right
    rep = _lions_report(state_sigma)
    ratio = rep.discrepancies / rep.eps_values
    assert np.all(np.abs(ratio / ratio[-1] - 1.0) <= 0.01)


@SIGMAS
def test_measure_derivative_passes_lions_fd_check(state_sigma):
    # the ratio of the discrepancy to eps grows by 0.1% (9.729e-2 to
    # 9.739e-2) as eps falls, well inside the check's margin
    rep = _lions_report(state_sigma)
    assert rep.first_order and rep.passed


@SIGMAS
def test_lions_fd_check_refuses_a_wrong_measure_derivative(state_sigma):
    # the declared derivative 5% too large leaves a discrepancy that does
    # not vanish with eps
    true = _coeffs(state_sigma)
    wrong = CoefficientSet(b=true.b, sigma=true.sigma, grad_b=true.grad_b,
                           lions_b=lambda t, x, mu, y: 1.05 * true.lions_b(t, x, mu, y),
                           d=1, m=1)
    rep = _lions_report(state_sigma, wrong)
    ratio = rep.discrepancies / rep.eps_values
    assert ratio[-1] > 100 * ratio[0]
    assert not rep.first_order and not rep.passed


@SIGMAS
def test_fluctuation_gap_and_strong_error_rates(state_sigma):
    # criterion 6's bounds: E sup |Z^eps - Z|^p ~ eps^(p/2); criterion 5's
    # strong rate: E sup |X^eps - X^0| ~ eps^(1/2)
    model = _model(state_sigma)
    grid = TimeGrid(1.0, 100)
    gaps2, gaps4 = {}, {}
    pair = None
    for eps in EPS:
        pair = clt_pair(model, XI, eps, grid, 2000, seed=2202, limit=pair)
        gaps2[eps] = clt_gap(pair, p=2).value
        gaps4[eps] = clt_gap(pair, p=4).value
    assert scaling_regression(gaps2).slope == pytest.approx(1.0, abs=0.2)
    assert scaling_regression(gaps4).slope == pytest.approx(2.0, abs=0.4)
    strong = strong_error_vs_eps(model, XI, EPS, grid, 2000, seed=2203)
    assert scaling_regression(strong).slope == pytest.approx(0.5, abs=0.1)


def _slsqp_rate(model, event, grid, kc):
    """The least energy 0.5 dt sum v_k^2 over controls, entering under kc,
    whose ldp path ends in the event, by SLSQP from several starts, each
    constraint gradient by finite differences of the forward solve."""
    from scipy.optimize import minimize

    coeffs, dt = model.coeffs, grid.dt
    x0 = solve_deterministic_limit(model.k1, coeffs, XI, grid)

    def terminal(v):
        path = solve_controlled_deterministic(model.k1, kc, coeffs, XI,
                                              ControlPath(grid=grid, values=v), x0, "ldp", grid)
        return float(path[-1] @ event.normal) - event.level

    starts = [np.full(grid.n_steps, 1.0), np.full(grid.n_steps, 3.0),
              np.random.default_rng(2204).normal(1.0, 1.0, size=grid.n_steps)]
    best = np.inf
    for v0 in starts:
        res = minimize(lambda v: 0.5 * dt * float(v @ v), v0, jac=lambda v: dt * v,
                       constraints=[{"type": "ineq", "fun": terminal}], method="SLSQP",
                       options={"ftol": 1e-14, "maxiter": 500})
        if res.success and terminal(res.x) >= -1e-10:
            best = min(best, float(res.fun))
    return best


def test_constant_sigma_ldp_rate_is_the_least_energy():
    # with constant sigma the minimizer's sensitivity is exact, so its rate
    # may not exceed the best energy SLSQP finds for the same discrete
    # problem, whose control enters under the noise kernel as the call's
    # does by default; the limit path ends near 1, below the event
    model = _model(False)
    grid = TimeGrid(1.0, 20)
    event = Halfspace(normal=[1.0], level=2.0)
    sol = minimize_rate_endpoint(model, "ldp", event, grid, xi=XI)
    assert sol.attained
    oracle = _slsqp_rate(model, event, grid, kc=model.k2)
    assert np.isfinite(oracle)
    assert sol.rate <= oracle * (1.0 + 1e-8)


@SIGMAS
def test_ldp_rate_tends_to_the_mdp_rate(state_sigma):
    # the small-noise rate of x_T >= x0_T + delta is delta^2 times the
    # moderate-deviation rate of the level 1, up to a relative gap of order
    # delta: the gap is positive and halves with delta (measured 2.006 to
    # 2.099 per halving, from 2.2e-2 at delta = 0.2 with unit sigma and
    # 8.6e-2 with cos sigma)
    model = _model(state_sigma)
    grid = TimeGrid(1.0, 100)
    x0_end = float(solve_deterministic_limit(model.k1, model.coeffs, XI, grid)[-1, 0])
    mdp = minimize_rate_endpoint(model, "mdp", Halfspace([1.0], 1.0), grid, xi=XI, kc=model.k2)
    assert mdp.attained
    gaps = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        ldp = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], x0_end + delta), grid,
                                     xi=XI, kc=model.k2)
        assert ldp.attained
        gaps.append(ldp.rate / (delta * delta * mdp.rate) - 1.0)
    assert all(gap > 0.0 for gap in gaps)
    factors = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((1.9 <= factors) & (factors <= 2.2))
