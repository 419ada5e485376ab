"""Coefficients along a deterministic path, under its frozen Dirac law.

Every call site that stacks b, grad_b, lions_b or sigma along the limit path
goes through ``solvers._along_path``; the limit and the ldp skeleton are
noise-free one-particle runs of the particle march, and the mdp skeleton and
the clt limit Z run the linear march.  The oracles below are the per-cell
loops those sites were written as before; each site must reproduce its loop
bit for bit, sign bits included, and call each evaluator once per cell.  The
noisy particle march is checked the same way against its per-step loop on
particle-major (N, n+1, d) states.
"""

from collections import Counter

import numpy as np
import pytest

from volterra_mv import (
    BlowUpError,
    BuiltinLinearMeanField,
    CoefficientSet,
    ControlPath,
    EmpiricalMeasure,
    FbmKernel,
    Model,
    PowerKernel,
    RateProblem,
    TimeGrid,
    clt_pair,
    simulate_controlled,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
)
from volterra_mv import rates, solvers
from volterra_mv.kernels import History, grid_weights

GRID = TimeGrid(1.0, 20)
KERNELS = {
    "power-fbm": (PowerKernel(0.3), FbmKernel(0.3)),
    "fbm-power": (FbmKernel(0.7), PowerKernel(0.3)),
}


def rich_coefficients(d: int, m: int | None = None) -> CoefficientSet:
    """sigma is d x m (m = d by default); b, grad_b, lions_b and sigma all vary
    with the state and the law.

    b_i(x, mu) = (A x)_i + 0.3 sin x_i + 0.2 (1 + t) tanh(m_i) - 0.1 x_i m_i
                 + 0.1 int y_i^2 mu(dy),  with m = int y mu(dy),
    so grad_b = A + diag(0.3 cos x - 0.1 m) and the measure derivative at the
    atom y is diag(0.2 (1 + t) / cosh^2 m - 0.1 x + 0.2 y).
    """
    a_mat = np.array([[-0.7, 0.3], [0.2, -0.4]])[:d, :d]
    m = d if m is None else m
    s_mat = np.array([[0.9, 0.1, 0.3], [-0.2, 0.8, -0.4]])[:d, :m]

    def b(t, x, mu):
        mean = mu.mean()
        square = (mu.points**2).mean(axis=0)
        return (x @ a_mat.T + 0.3 * np.sin(x) + 0.2 * (1.0 + t) * np.tanh(mean)[None, :]
                - 0.1 * x * mean[None, :] + 0.1 * square[None, :])

    def grad_b(t, x, mu):
        diag = 0.3 * np.cos(x) - 0.1 * mu.mean()[None, :]
        return a_mat[None] + diag[:, :, None] * np.eye(d)[None]

    def lions_b(t, x, mu, y):
        y = np.asarray(y, dtype=float)
        diag = 0.2 * (1.0 + t) / np.cosh(mu.mean()) ** 2 - 0.1 * x + 0.2 * y
        return diag[:, :, None] * np.eye(d)[None]

    def sigma(t, x, mu):
        scale = 1.0 + 0.2 * np.tanh(x).sum(axis=1) + 0.05 * mu.mean().sum()
        return s_mat[None] * scale[:, None, None]

    return CoefficientSet(b=b, sigma=sigma, d=d, m=m, grad_b=grad_b, lions_b=lions_b)


def counting(coeffs: CoefficientSet):
    """The same coefficients, with a Counter of the calls to each evaluator."""
    calls = Counter()

    def count(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    counted = CoefficientSet(
        b=count("b", coeffs.b), sigma=count("sigma", coeffs.sigma),
        d=coeffs.d, m=coeffs.m, grad_b=count("grad_b", coeffs.grad_b),
        lions_b=count("lions_b", coeffs.lions_b),
    )
    return counted, calls


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# --- the per-cell loops, as they stood before the helper -------------------

def loop_limit(k1, coeffs, xi, grid):
    n, d = grid.n_steps, coeffs.d
    dt, times = grid.dt, grid.times
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    drift = History(grid_weights(k1, grid), (d,))
    x = np.empty((n + 1, d))
    x[0] = xi_arr
    for i in range(n):
        mu = EmpiricalMeasure.dirac(x[i])
        bi = coeffs.drift(times[i], x[i][None, :], mu)[0]
        x[i + 1] = xi_arr + dt * drift.push(bi)
    return x


def loop_skeleton(k1, kc, coeffs, xi, v, x0_path, grid):
    n, d = grid.n_steps, coeffs.d
    dt, times = grid.dt, grid.times
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    drift = History(grid_weights(k1, grid), (d,))
    ctrl = History(grid_weights(kc, grid), (d,))
    x = np.empty((n + 1, d))
    x[0] = xi_arr
    for i in range(n):
        mu = EmpiricalMeasure.dirac(x0_path[i])
        a = coeffs.drift(times[i], x[i][None, :], mu)[0]
        c = coeffs.diffusion(times[i], x[i][None, :], mu)[0] @ v.values[i]
        x[i + 1] = xi_arr + dt * drift.push(a) + dt * ctrl.push(c)
    return x


def loop_control_system(problem):
    coeffs, grid = problem.coeffs, problem.grid
    n, d, m = grid.n_steps, coeffs.d, coeffs.m
    dt, times = grid.dt, grid.times
    w1 = grid_weights(problem.k1, grid)
    wc = grid_weights(problem.kc, grid)
    target, x0 = problem.target, problem.x0_path
    sig = np.empty((n, d, m))
    drift_term = np.empty((n, d))
    if problem.mode == "mdp":
        for k in range(n):
            mu = EmpiricalMeasure.dirac(x0[k])
            g_k = coeffs.drift_gradient(times[k], x0[k][None, :], mu)[0]
            drift_term[k] = g_k @ target[k]
            sig[k] = coeffs.diffusion(times[k], x0[k][None, :], mu)[0]
        g = target[1:] - dt * (w1[1:, :] @ drift_term)
    else:
        for k in range(n):
            mu = EmpiricalMeasure.dirac(x0[k])
            drift_term[k] = coeffs.drift(times[k], target[k][None, :], mu)[0]
            sig[k] = coeffs.diffusion(times[k], target[k][None, :], mu)[0]
        g = target[1:] - x0[0][None, :] - dt * (w1[1:, :] @ drift_term)
    c = dt * np.einsum("ik,kdm->idkm", wc[1:, :], sig).reshape(n * d, n * m)
    return c, g.reshape(-1), sig


def loop_terminal_sensitivity(mode, k1, kc, coeffs, x0_path, path, grid, normal):
    n, d, m = grid.n_steps, coeffs.d, coeffs.m
    dt, times = grid.dt, grid.times
    w1 = grid_weights(k1, grid)
    wc = grid_weights(kc, grid)
    ref = x0_path if mode == "mdp" else path
    grads = np.empty((n, d, d))
    sig = np.empty((n, d, m))
    for k in range(n):
        mu = EmpiricalMeasure.dirac(x0_path[k])
        grads[k] = coeffs.drift_gradient(times[k], ref[k][None, :], mu)[0]
        sig[k] = coeffs.diffusion(times[k], ref[k][None, :], mu)[0]
    q = np.zeros((n + 1, d))
    q[n] = normal
    for k in range(n - 1, -1, -1):
        q[k] = dt * grads[k].T @ (w1[k + 1:, k] @ q[k + 1:])
    return np.einsum("kdm,kd->km", sig, dt * (wc.T @ q)).reshape(-1)


def loop_linearized(k1, kc, coeffs, v, x0_path, grid):
    n, d = grid.n_steps, coeffs.d
    dt, times = grid.dt, grid.times
    drift = History(grid_weights(k1, grid), (d,))
    ctrl = History(grid_weights(kc, grid), (d,))
    diracs = [EmpiricalMeasure.dirac(x0_path[k]) for k in range(n)]
    grads = np.empty((n, d, d))
    forc = np.empty((n, d))
    for k in range(n):
        grads[k] = coeffs.drift_gradient(times[k], x0_path[k][None, :], diracs[k])[0]
        forc[k] = coeffs.diffusion(times[k], x0_path[k][None, :], diracs[k])[0] @ v.values[k]
    x = np.empty((n + 1, d))
    x[0] = 0.0
    for i in range(n):
        step = dt * drift.push(grads[i] @ x[i])
        x[i + 1] = step + dt * ctrl.push(forc[i])
    return x


def loop_linear_limit(model, x0, dw, grid):
    coeffs = model.coeffs
    d, m = coeffs.d, coeffs.m
    n_particles = dw.shape[0]
    n, dt, times = grid.n_steps, grid.dt, grid.times
    grads = np.empty((n, d, d))
    dls = np.empty((n, d, d))
    sig0 = np.empty((n, d, m))
    for k in range(n):
        mu = EmpiricalMeasure.dirac(x0[k])
        grads[k] = coeffs.drift_gradient(times[k], x0[k][None, :], mu)[0]
        dls[k] = coeffs.drift_measure_derivative(times[k], x0[k], mu, x0[k][None, :])[0]
        sig0[k] = coeffs.diffusion(times[k], x0[k][None, :], mu)[0]
    drift = History(grid_weights(model.k1, grid), (n_particles * d,))
    noise = History(grid_weights(model.k2, grid), (n_particles * d,))
    z = np.empty((n_particles, n + 1, d))
    z[:, 0, :] = 0.0
    for i in range(n):
        zi = z[:, i, :]
        bi = zi @ grads[i].T + (zi.mean(axis=0) @ dls[i].T)[None, :]
        nxt = dt * drift.push(bi.reshape(-1)) + noise.push(
            (dw[:, i, :] @ sig0[i].T).reshape(-1)
        )
        z[:, i + 1, :] = nxt.reshape(n_particles, d)
    return z


def loop_mdp_particles(k1, k2, kc, coeffs, v, x0_path, dw, grid, scale, noise_scale, law):
    """The controlled dynamics of the rescaled deviation Y = (X - X^0) / scale
    from the limit path, with b(X^0) rebuilt in every step; law is None for
    the ensemble's own law, else frozen states (N', n+1, d).  The library has
    no such particle system; the mdp-form tests of test_solvers.py compare
    this loop with simulate_particles and the linearized skeleton."""
    n_particles = dw.shape[0]
    n, d = grid.n_steps, coeffs.d
    dt, times = grid.dt, grid.times
    states = np.zeros((n_particles, n + 1, d))
    base = states[:, 0, :].reshape(-1)
    flat = (n_particles * d,)
    drift = History(grid_weights(k1, grid), flat)
    noise = History(grid_weights(k2, grid), flat)
    ctrl = History(grid_weights(kc, grid), flat)
    for i in range(n):
        t = times[i]
        shifted = x0_path[i][None, :] + scale * states[:, i, :]
        points = shifted if law is None else law[:, i, :]
        mu = EmpiricalMeasure(points=points, _validate=False)
        b_shift = coeffs.drift(t, shifted, mu)
        b_base = coeffs.drift(t, x0_path[i][None, :], EmpiricalMeasure.dirac(x0_path[i]))
        bi = (b_shift - b_base) / scale
        si = coeffs.diffusion(t, shifted, mu)
        nxt = base + dt * drift.push(bi.reshape(-1))
        nxt = nxt + dt * ctrl.push((si @ v.values[i]).reshape(-1))
        noise_i = np.einsum("ndm,nm->nd", si, dw[:, i, :]).reshape(-1)
        nxt = nxt + noise_scale * noise.push(noise_i)
        states[:, i + 1, :] = nxt.reshape(n_particles, d)
    return states


def loop_particles(k1, k2, kc, coeffs, xi, dw, grid, noise_scale, v=None, law=None):
    """The noisy particle march on particle-major (N, n+1, d) states, one
    strided node slice per step: the ensemble's own law, or frozen states
    (N', n+1, d) as law; v adds the control term under kc.  Raises the
    solvers' BlowUpError at the first node whose magnitude leaves the guard."""
    n_particles = dw.shape[0]
    n, d = grid.n_steps, coeffs.d
    dt, times = grid.dt, grid.times
    states = np.empty((n_particles, n + 1, d))
    states[:, 0, :] = xi
    base = np.tile(np.atleast_1d(np.asarray(xi, dtype=float)), (n_particles, 1)).reshape(-1)
    flat = (n_particles * d,)
    drift = History(grid_weights(k1, grid), flat)
    noise = History(grid_weights(k2, grid), flat)
    ctrl = History(grid_weights(kc, grid), flat)
    for i in range(n):
        t = times[i]
        at = states[:, i, :]
        mu = EmpiricalMeasure(points=at if law is None else law[:, i, :], _validate=False)
        nxt = base + dt * drift.push(coeffs.drift(t, at, mu).reshape(-1))
        si = coeffs.diffusion(t, at, mu)
        if v is not None:
            nxt = nxt + dt * ctrl.push((si @ v.values[i]).reshape(-1))
        noise_i = np.einsum("ndm,nm->nd", si, dw[:, i, :]).reshape(-1)
        nxt = nxt + noise_scale * noise.push(noise_i)
        states[:, i + 1, :] = nxt.reshape(n_particles, d)
        mx = float(np.max(np.abs(states[:, i + 1, :])))
        if not np.isfinite(mx) or mx > solvers.OVERFLOW_GUARD:
            raise BlowUpError("oracle overflow", step=i + 1, magnitude=mx)
    return states


# --- fixtures ----------------------------------------------------------------

def _setup(d, m):
    coeffs = rich_coefficients(d, m)
    xi = np.linspace(0.3, 0.7, d)
    v = ControlPath(grid=GRID, values=np.random.default_rng(5).normal(size=(GRID.n_steps, m)))
    return d, coeffs, xi, v


@pytest.fixture(params=[1, 2], ids=["d1", "d2"])
def setup(request):
    """(d, coefficients, xi, a control) for d = m in {1, 2}."""
    return _setup(request.param, request.param)


@pytest.fixture(params=[(1, 1), (2, 2), (2, 1), (2, 3)], ids=["d1", "d2", "d2m1", "d2m3"])
def setup_dm(request):
    """As ``setup``, also with a d x m sigma for m != d."""
    return _setup(*request.param)


def _limit(k1, coeffs, xi):
    return solve_deterministic_limit(k1, coeffs, xi, GRID)


def _targets(k1, kc, coeffs, xi, v, x0):
    return {
        "ldp": solve_controlled_deterministic(k1, kc, coeffs, xi, v, x0, "ldp", GRID),
        "mdp": solve_controlled_deterministic(k1, kc, coeffs, xi, v, x0,
                                              "mdp_linearized", GRID),
    }


# --- tests ---------------------------------------------------------------------

def test_along_path_one_call_per_evaluator_per_cell(setup):
    d, coeffs, xi, _ = setup
    x0 = _limit(PowerKernel(0.3), coeffs, xi)
    counted, calls = counting(coeffs)
    drift, grads, sig = solvers._along_path(
        GRID, x0, counted.drift, counted.drift_gradient, counted.diffusion
    )
    n = GRID.n_steps
    assert calls == Counter(b=n, grad_b=n, sigma=n)
    assert drift.shape == (n, d) and grads.shape == (n, d, d) and sig.shape == (n, d, d)
    for k in (0, n - 1):
        mu = EmpiricalMeasure.dirac(x0[k])
        assert_bitwise(sig[k], coeffs.diffusion(GRID.times[k], x0[k][None, :], mu)[0])


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
@pytest.mark.parametrize("mode", ["ldp", "mdp"])
def test_control_system_matches_loop(setup, kernels, mode):
    d, coeffs, xi, v = setup
    k1, kc = KERNELS[kernels]
    x0 = _limit(k1, coeffs, xi)
    target = _targets(k1, kc, coeffs, xi, v, x0)[mode]
    counted, calls = counting(coeffs)
    problem = RateProblem(mode=mode, k1=k1, kc=kc, coeffs=counted, grid=GRID,
                          x0_path=x0, target=target)
    got = rates._control_system(problem)
    n = GRID.n_steps
    assert calls == Counter({"grad_b" if mode == "mdp" else "b": n, "sigma": n})
    for a, b in zip(got, loop_control_system(problem)):
        assert_bitwise(a, b)


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
@pytest.mark.parametrize("mode", ["ldp", "mdp"])
def test_terminal_sensitivity_matches_loop(setup, kernels, mode):
    d, coeffs, xi, v = setup
    k1, kc = KERNELS[kernels]
    x0 = _limit(k1, coeffs, xi)
    path = _targets(k1, kc, coeffs, xi, v, x0)["ldp"]
    normal = np.linspace(1.0, -0.5, d)
    counted, calls = counting(coeffs)
    got = rates._terminal_sensitivity(mode, k1, kc, counted, x0, path, GRID, normal)
    assert calls == Counter(grad_b=GRID.n_steps, sigma=GRID.n_steps)
    want = loop_terminal_sensitivity(mode, k1, kc, coeffs, x0, path, GRID, normal)
    assert_bitwise(got, want)


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
def test_linearized_march_matches_loop(setup_dm, kernels):
    d, coeffs, xi, v = setup_dm
    k1, kc = KERNELS[kernels]
    x0 = _limit(k1, coeffs, xi)
    counted, calls = counting(coeffs)
    got = solve_controlled_deterministic(k1, kc, counted, xi, v, x0, "mdp_linearized", GRID)
    assert calls == Counter(grad_b=GRID.n_steps, sigma=GRID.n_steps)
    assert_bitwise(got, loop_linearized(k1, kc, coeffs, v, x0, GRID))


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
def test_clt_limit_matches_loop(setup_dm, kernels):
    d, coeffs, xi, _ = setup_dm
    k1, k2 = KERNELS[kernels]
    counted, calls = counting(coeffs)
    pair = clt_pair(Model(k1, k2, counted), xi, 0.01, GRID, 16, seed=6)
    n = GRID.n_steps
    # X^0 and the particle pass take b (and sigma); Z takes each of its three
    # coefficients once per cell
    assert calls == Counter(b=2 * n, sigma=2 * n, grad_b=n, lions_b=n)
    want = loop_linear_limit(Model(k1, k2, coeffs), pair.x0_path,
                             pair.z_lim.driver_increments, GRID)
    assert_bitwise(pair.z_lim.states, want)


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
def test_limit_matches_loop(setup, kernels):
    d, coeffs, xi, _ = setup
    k1, _ = KERNELS[kernels]
    counted, calls = counting(coeffs)
    got = solve_deterministic_limit(k1, counted, xi, GRID)
    assert calls == Counter(b=GRID.n_steps)
    assert_bitwise(got, loop_limit(k1, coeffs, xi, GRID))


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
def test_skeleton_matches_loop(setup, kernels):
    d, coeffs, xi, v = setup
    k1, kc = KERNELS[kernels]
    x0 = _limit(k1, coeffs, xi)
    counted, calls = counting(coeffs)
    got = solve_controlled_deterministic(k1, kc, counted, xi, v, x0, "ldp", GRID)
    assert calls == Counter(b=GRID.n_steps, sigma=GRID.n_steps)
    assert_bitwise(got, loop_skeleton(k1, kc, coeffs, xi, v, x0, GRID))


def test_noise_free_particles_call_no_sigma(setup):
    d, coeffs, xi, _ = setup
    k1, k2 = KERNELS["power-fbm"]
    counted, calls = counting(coeffs)
    ens = simulate_particles(k1, k2, counted, xi, 0.0, GRID, 5, seed=3)
    assert calls == Counter(b=GRID.n_steps)
    # the increments are still drawn: the same seed at eps > 0 uses them
    assert ens.driver_increments.shape == (5, GRID.n_steps, d)
    limit = np.broadcast_to(_limit(k1, coeffs, xi), ens.states.shape)
    np.testing.assert_allclose(ens.states, limit, rtol=1e-12, atol=1e-12)


# the noisy march over several blocks of increments (70 steps, blocks of 32)
# and with blocked history sums (N d >= 64)
LONG_GRID = TimeGrid(1.0, 70)
N_NOISY = 70


def _builtin(d, m):
    return BuiltinLinearMeanField(a=-0.6, b=0.4, sigma0=np.eye(d, m), sigma1=0.3,
                                  d=d, m=m).coefficients()


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
@pytest.mark.parametrize("model", ["rich", "builtin"])
@pytest.mark.parametrize("dm", [(1, 1), (2, 1), (2, 3)], ids=["d1", "d2m1", "d2m3"])
def test_noisy_particles_match_loop(dm, model, kernels):
    d, m = dm
    k1, k2 = KERNELS[kernels]
    coeffs = rich_coefficients(d, m) if model == "rich" else _builtin(d, m)
    xi = np.linspace(0.3, 0.7, d)
    eps = 0.09
    ens = simulate_particles(k1, k2, coeffs, xi, eps, LONG_GRID, N_NOISY, seed=8)
    want = loop_particles(k1, k2, k2, coeffs, xi, ens.driver_increments, LONG_GRID,
                          np.sqrt(eps))
    assert_bitwise(ens.states, want)


@pytest.mark.parametrize("kernels", KERNELS, ids=list(KERNELS))
def test_controlled_ldp_frozen_ensemble_matches_loop(kernels):
    d, m = 2, 3
    k1, k2 = KERNELS[kernels]
    kc = PowerKernel(0.4)
    coeffs = rich_coefficients(d, m)
    xi = np.array([0.2, -0.4])
    eps = 0.05
    v = ControlPath(grid=LONG_GRID,
                    values=np.random.default_rng(9).normal(size=(LONG_GRID.n_steps, m)))
    law = simulate_particles(k1, k2, coeffs, xi, eps, LONG_GRID, 9, seed=1).states
    ens = simulate_controlled(k1, k2, kc, coeffs, xi, eps, v, LONG_GRID, N_NOISY, seed=3,
                              frozen_path=law)
    want = loop_particles(k1, k2, kc, coeffs, xi, ens.driver_increments, LONG_GRID,
                          np.sqrt(eps), v=v, law=law)
    assert_bitwise(ens.states, want)


def test_blow_up_step_matches_loop():
    k1, k2 = KERNELS["power-fbm"]

    def b(t, x, mu):
        return 6.0 * x**3 + mu.mean()[None, :]

    def sigma(t, x, mu):
        return np.ones((*x.shape, 1))

    coeffs = CoefficientSet(b=b, sigma=sigma, d=1, m=1)
    with pytest.raises(BlowUpError) as got:
        simulate_particles(k1, k2, coeffs, 1.0, 0.5, LONG_GRID, N_NOISY, seed=2)
    dw = simulate_particles(k1, k2, BuiltinLinearMeanField().coefficients(), 1.0, 0.5,
                            LONG_GRID, N_NOISY, seed=2).driver_increments
    with pytest.raises(BlowUpError) as want:
        loop_particles(k1, k2, k2, coeffs, 1.0, dw, LONG_GRID, np.sqrt(0.5))
    assert 1 < want.value.step < LONG_GRID.n_steps
    assert got.value.step == want.value.step
    assert got.value.magnitude == want.value.magnitude
