"""Rate functionals as discrete optimal-control problems.

Both rate functionals measured here are infima of the control energy
0.5 * int |v|^2 dt over controls steering a deterministic limit equation into
a target: the small-noise functional constrains the controlled limit path,
the moderate-deviation functional its drift linearization.  On the grid the
constraint is affine in the control once the target is fixed, so the infimum
reduces to a minimum-norm least-squares solve of a first-kind triangular
system; the re-substitution residual is always reported and attainment is
never claimed beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .coefficients import CoefficientSet
from .errors import BlowUpError, GridMismatchError, RankDeficiencyError
from .grids import TimeGrid
from .kernels import Kernel, grid_weights
from .measures import EmpiricalMeasure
from .solvers import (
    ControlPath,
    Model,
    _simulate,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
)
from . import rng as _rng


@dataclass
class RateProblem:
    """A rate evaluation: invert the control-to-path map at a given target."""

    mode: str                  # "ldp" or "mdp"
    k1: Kernel
    kc: Kernel
    coeffs: CoefficientSet
    grid: TimeGrid
    x0_path: np.ndarray
    target: np.ndarray
    lam_reg: float = 0.0

    def __post_init__(self):
        if self.mode not in ("ldp", "mdp"):
            raise ValueError("mode must be 'ldp' or 'mdp'")
        n = self.grid.n_steps
        d = self.coeffs.d
        self.x0_path = np.asarray(self.x0_path, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.target.ndim == 1:
            self.target = self.target[:, None]
        if self.x0_path.ndim == 1:
            self.x0_path = self.x0_path[:, None]
        if self.x0_path.shape != (n + 1, d) or self.target.shape != (n + 1, d):
            raise GridMismatchError("target and limit path must live on the grid nodes")
        if self.lam_reg < 0:
            raise ValueError("regularization weight must be nonnegative")
        anchor = self.x0_path[0] if self.mode == "ldp" else np.zeros(d)
        if not np.allclose(self.target[0], anchor, atol=1e-9):
            raise ValueError(
                "target must start at the initial condition (ldp) or zero (mdp)"
            )


@dataclass
class RateSolution:
    v_star: ControlPath
    rate: float
    residual: float
    attained: bool
    lambda_used: float = 0.0
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)


def _control_system(problem: RateProblem):
    """Dense first-kind system C v = g extracted from the discrete constraint."""
    coeffs = problem.coeffs
    grid = problem.grid
    n, d, m = grid.n_steps, coeffs.d, coeffs.m
    dt = grid.dt
    times = grid.times
    w1 = grid_weights(problem.k1, grid)
    wc = grid_weights(problem.kc, grid)
    target = problem.target
    x0 = problem.x0_path

    sig = np.empty((n, d, m))
    if problem.mode == "mdp":
        drift_term = np.empty((n, d))
        for k in range(n):
            mu = EmpiricalMeasure.dirac(x0[k])
            g_k = coeffs.drift_gradient(times[k], x0[k][None, :], mu)[0]
            drift_term[k] = g_k @ target[k]
            sig[k] = coeffs.diffusion(times[k], x0[k][None, :], mu)[0]
        g = target[1:] - dt * (w1[1:, :] @ drift_term)
    else:
        drift_term = np.empty((n, d))
        for k in range(n):
            mu = EmpiricalMeasure.dirac(x0[k])
            drift_term[k] = coeffs.drift(times[k], target[k][None, :], mu)[0]
            sig[k] = coeffs.diffusion(times[k], target[k][None, :], mu)[0]
        g = target[1:] - x0[0][None, :] - dt * (w1[1:, :] @ drift_term)

    c = dt * np.einsum("ik,kdm->idkm", wc[1:, :], sig).reshape(n * d, n * m)
    return c, g.reshape(-1), sig


def _solve_first_kind(c: np.ndarray, g: np.ndarray, lam_reg: float, sig: np.ndarray,
                      wc_lead: np.ndarray, dt: float):
    """Minimum-norm least squares, with automatic ridge when the kernel's
    leading cell weights vanish and an explicit error when the diffusion
    itself is rank deficient and no regularization was requested."""
    n = sig.shape[0]
    m = sig.shape[2]
    sig_min = np.array([np.linalg.svd(sig[k], compute_uv=False).min(initial=np.inf)
                        if min(sig[k].shape) > 0 else 0.0 for k in range(n)])
    sig_scale = float(np.abs(sig).max(initial=0.0))
    lam = lam_reg
    auto = 0.0
    if lam == 0.0:
        if np.any(sig_min <= 1e-12 * (1.0 + sig_scale)):
            raise RankDeficiencyError(
                "diffusion matrix is rank deficient on the limit path; supply lam_reg > 0"
            )
        lead = np.abs(dt * wc_lead)
        if np.any(lead <= 1e-14 * max(lead.max(initial=0.0), 1.0)):
            auto = 1e-10 * float(np.linalg.norm(c))
            lam = auto
    if lam > 0.0:
        gram = c.T @ c + lam * np.eye(c.shape[1])
        v = np.linalg.solve(gram, c.T @ g)
    else:
        v, *_ = np.linalg.lstsq(c, g, rcond=None)
    return v.reshape(n, m), auto if lam_reg == 0.0 else lam_reg


def _finish(problem: RateProblem, v: np.ndarray, lambda_used: float,
            residual_tol: float | None) -> RateSolution:
    grid = problem.grid
    ctrl = ControlPath(grid=grid, values=v)
    mode = "mdp_linearized" if problem.mode == "mdp" else "ldp"
    resub = solve_controlled_deterministic(
        problem.k1, problem.kc, problem.coeffs, problem.x0_path[0], ctrl,
        problem.x0_path, mode, grid,
    )
    residual = float(np.max(np.abs(resub - problem.target)))
    if residual_tol is None:
        residual_tol = 1e-6 * (1.0 + float(np.max(np.abs(problem.target))))
    return RateSolution(
        v_star=ctrl, rate=ctrl.energy, residual=residual,
        attained=residual <= residual_tol, lambda_used=lambda_used,
    )


def mdp_rate(problem: RateProblem, residual_tol: float | None = None) -> RateSolution:
    """Moderate-deviation rate of a target path of the drift linearization.

    Moves the linear drift feedback to the right-hand side and solves the
    remaining first-kind control system in the minimum-norm least-squares
    sense (ridge-regularized when requested or when the control kernel's
    leading weights vanish); the rate is the recovered control energy.
    """
    if problem.mode != "mdp":
        raise ValueError("problem mode must be 'mdp'")
    c, g, sig = _control_system(problem)
    wc = grid_weights(problem.kc, problem.grid)
    lead = np.array([wc[k + 1, k] for k in range(problem.grid.n_steps)])
    v, lam = _solve_first_kind(c, g, problem.lam_reg, sig, lead, problem.grid.dt)
    return _finish(problem, v, lam, residual_tol)


def ldp_rate(problem: RateProblem, residual_tol: float | None = None) -> RateSolution:
    """Small-noise rate of a target path of the controlled limit equation.

    With the target fixed, the constraint is affine in the control, so it is
    inverted directly in the minimum-norm least-squares sense
    (ridge-regularized as in mdp_rate); the rate is the recovered control
    energy.
    """
    if problem.mode != "ldp":
        raise ValueError("problem mode must be 'ldp'")
    c, g, sig = _control_system(problem)
    wc = grid_weights(problem.kc, problem.grid)
    lead = np.array([wc[k + 1, k] for k in range(problem.grid.n_steps)])
    v, lam = _solve_first_kind(c, g, problem.lam_reg, sig, lead, problem.grid.dt)
    return _finish(problem, v, lam, residual_tol)


@dataclass(frozen=True)
class Halfspace:
    """Terminal event {x : <normal, x> >= level}."""

    normal: np.ndarray
    level: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.atleast_1d(np.asarray(self.normal, dtype=float)))

    def contains(self, x) -> np.ndarray:
        return np.asarray(x) @ self.normal >= self.level


def _terminal_sensitivity(problem_mode, k1, kc, coeffs, x0_path, path, grid, normal):
    """Gradient of <normal, x_T> with respect to the stacked control values.

    Uses the exact linearization for the mdp mode and a Gauss-Newton
    linearization (drift gradient along the current path, diffusion frozen)
    for the ldp mode.
    """
    n, d, m = grid.n_steps, coeffs.d, coeffs.m
    dt = grid.dt
    times = grid.times
    w1 = grid_weights(k1, grid)
    wc = grid_weights(kc, grid)
    ref = x0_path if problem_mode == "mdp" else path
    grads = np.empty((n, d, d))
    sig = np.empty((n, d, m))
    for k in range(n):
        mu = EmpiricalMeasure.dirac(x0_path[k])
        grads[k] = coeffs.drift_gradient(times[k], ref[k][None, :], mu)[0]
        sig[k] = coeffs.diffusion(times[k], ref[k][None, :], mu)[0]
    # adjoint of delta_x = L delta_x + C delta_v against the terminal functional
    size = (n + 1) * d
    lmat = np.zeros((size, size))
    lmat[:, : n * d] = dt * np.einsum("ik,kab->iakb", w1, grads).reshape(size, n * d)
    rhs = np.zeros(size)
    rhs[n * d :] = normal
    q = solve_triangular(np.eye(size) - lmat, rhs, lower=True, trans="T")
    qmat = q.reshape(n + 1, d)
    qk = dt * np.einsum("ik,id->kd", wc, qmat)  # (n, d)
    r = np.einsum("kdm,kd->km", sig, qk)
    return r.reshape(-1)


def minimize_rate_endpoint(model: Model, mode: str, event: Halfspace, grid: TimeGrid,
                           xi=0.0, kc: Kernel | None = None,
                           init: ControlPath | None = None, max_iter: int = 40,
                           step: float = 1.0, stages: int = 8,
                           penalty0: float = 1.0,
                           constraint_tol: float = 1e-9) -> RateSolution:
    """Smallest control energy driving the limit dynamics into a terminal halfspace.

    Penalty continuation (factor 10 per stage) over backtracking gradient
    descent, followed by a minimum-norm equality polish on the linearized
    active constraint.  Deterministic given the initial control and
    parameters.  The control kernel defaults to the drift kernel in ldp mode
    and the noise kernel in mdp mode.  A trial step whose trajectory trips the
    overflow guard counts as no decrease, so the step halves.  A stage whose
    line search finds no decrease ends there;
    diagnostics["line_search_failures"] lists each such stop as
    {"stage", "iteration"}.
    """
    coeffs = model.coeffs
    if kc is None:
        kc = model.k1 if mode == "ldp" else model.k2
    n, m = grid.n_steps, coeffs.m
    dt = grid.dt
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    x0_path = solve_deterministic_limit(model.k1, coeffs, xi_arr, grid)
    v = np.zeros((n, m)) if init is None else np.array(init.values, dtype=float)
    forward_mode = "mdp_linearized" if mode == "mdp" else "ldp"

    def forward(vv):
        return solve_controlled_deterministic(model.k1, kc, coeffs, xi_arr,
                                              ControlPath(grid=grid, values=vv),
                                              x0_path, forward_mode, grid)

    scale = 1.0 + abs(event.level) + float(np.max(np.abs(x0_path)))
    path0 = forward(np.zeros((n, m)))
    if float(path0[-1] @ event.normal) >= event.level - constraint_tol * scale:
        zero = ControlPath.zero(grid, m)
        return RateSolution(v_star=zero, rate=0.0, residual=0.0, attained=True)

    def objective(vv, rho):
        path = forward(vv)
        viol = max(0.0, event.level - float(path[-1] @ event.normal))
        energy = 0.5 * float(np.sum(vv**2)) * dt
        return energy + rho * viol * viol, path, viol

    rho = penalty0
    iterations = 0
    failures = []
    r_fixed = None
    if mode == "mdp":
        # the linearized dynamics are the dynamics: one sensitivity row suffices
        r_fixed = _terminal_sensitivity(mode, model.k1, kc, coeffs, x0_path, path0,
                                        grid, event.normal).reshape(n, m)
    for stage in range(stages):
        for it in range(max_iter):
            val, path, viol = objective(v, rho)
            if r_fixed is not None:
                r = r_fixed
            else:
                r = _terminal_sensitivity(mode, model.k1, kc, coeffs, x0_path, path,
                                          grid, event.normal).reshape(n, m)
            grad = dt * v - 2.0 * rho * viol * r
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= 1e-12 * (1.0 + rho):
                break
            stp = step
            improved = False
            for _ in range(30):
                cand = v - stp * grad
                try:
                    cval, _, _ = objective(cand, rho)
                except BlowUpError:
                    cval = np.inf  # a trial past the overflow guard is no decrease
                if cval <= val - 0.25 * stp * gnorm * gnorm:
                    improved = True
                    break
                stp *= 0.5
            if not improved:
                failures.append({"stage": stage, "iteration": it})
                break
            v = v - stp * grad
            iterations += 1
        rho *= 10.0
    # equality polish on the linearized constraint: min energy s.t. <r, v> fixed
    for _ in range(8):
        path = forward(v)
        gap = event.level - float(path[-1] @ event.normal)
        if r_fixed is not None:
            r = r_fixed
        else:
            r = _terminal_sensitivity(mode, model.k1, kc, coeffs, x0_path, path,
                                      grid, event.normal).reshape(n, m)
        rr = float(np.sum(r * r))
        if rr <= 0.0:
            break
        # current linearization: <n, x_T(v + dv)> ~ <n, x_T(v)> + <r, dv>;
        # the min-energy point on the affine constraint is proportional to r
        offset = float(np.sum(r * v)) + gap
        v = r * (offset / rr)
        if abs(gap) <= constraint_tol * scale:
            break
    path = forward(v)
    terminal = float(path[-1] @ event.normal)
    attained = terminal >= event.level - constraint_tol * scale
    ctrl = ControlPath(grid=grid, values=v)
    return RateSolution(
        v_star=ctrl, rate=ctrl.energy,
        residual=max(0.0, event.level - terminal),
        attained=attained, iterations=iterations,
        diagnostics={"terminal_value": terminal, "line_search_failures": failures},
    )


RESOLVED_HITS = 50


@dataclass(frozen=True)
class TailCell:
    eps: float
    h: float
    n_hits: int
    p_hat: float | None
    normalized_decay: float | None
    censored: bool
    resolved: bool
    method: str = "crude"
    rel_stderr: float | None = None


@dataclass(frozen=True)
class TailProbeResult:
    mode: str
    cells: tuple
    rate_reference: float | None


def _weighted_tail(log_w: np.ndarray, n: int):
    """Log of the mean of n indicators weighted by exp(log_w) on the hits (the
    misses weigh zero) and its relative standard error, evaluated relative to
    the largest log-weight so that neither underflows."""
    top = float(log_w.max())
    s = np.exp(log_w - top)
    mean = float(s.sum()) / n
    rel_stderr = None
    if n > 1:
        var = (float(s @ s) / n - mean * mean) * n / (n - 1)
        rel_stderr = float(np.sqrt(max(var, 0.0) / n)) / mean
    return top + float(np.log(mean)), rel_stderr


def _tagged_terminal(model: Model, xi_arr, eps: float, grid: TimeGrid, law: np.ndarray,
                     n_particles: int, seed: int, theta: np.ndarray):
    """Terminal states of tagged particles under the frozen empirical law path,
    with driver increments shifted by theta * dt, and their log likelihood
    ratios sum_k (-theta_k . dW_k + 0.5 |theta_k|^2 dt) in the shifted dW."""
    dt = grid.dt
    dw = _rng.normal_increments(seed, "tagged", n_particles, grid.n_steps,
                                model.coeffs.m, dt)
    dw += theta[None] * dt
    log_w = 0.5 * dt * float(np.sum(theta * theta)) - np.einsum("nkm,km->n", dw, theta)
    tagged = _simulate(
        model.k1, model.k2, None, model.coeffs, xi_arr, eps, grid, n_particles, seed,
        v=None, noise_scale=float(np.sqrt(eps)), law_mode="frozen", frozen_path=law,
        x0_path=None, mdp_scale=0.0, tag="tagged", driver_increments=dw,
    )
    return tagged.terminal().copy(), log_w


def tail_probability_probe(model: Model, mode: str, event: Halfspace, eps_list,
                           n_particles: int, seed: int, grid: TimeGrid, xi=0.0,
                           h_beta: float = 0.25, kc: Kernel | None = None,
                           with_reference: bool = True,
                           seed_indices=None, method: str = "crude") -> TailProbeResult:
    """Monte Carlo tail probabilities against the optimal-control rate.

    For each eps the event probability of the terminal state (ldp) or of the
    rescaled deviation with h(eps) = eps^-h_beta (mdp) is estimated on an
    independent seeded substream; cells with zero hits are reported censored,
    never as an infinite decay.  Rows carry -eps log p (ldp) or -log p / h^2
    (mdp) next to the minimize_rate_endpoint value, the relative standard
    error of p, and whether the cell is resolved (at least RESOLVED_HITS hits
    and a relative error no worse than crude sampling reaches with that many).

    method="crude" counts hits among the interacting particles themselves.
    It resolves only probabilities above roughly RESOLVED_HITS / n_particles:
    a cell whose probability is far below 1 / n_particles comes back censored.

    method="importance" resolves probabilities far below 1 / n_particles.
    The optimal control v* of the minimizer is computed once with the control
    under the noise kernel k2.  In each cell an untilted particle pass fixes
    the empirical law path; then n_particles tagged particles on their own
    substream run under that frozen law, with driver increments shifted by
    theta dt, theta = v* / sqrt(eps) (ldp) or h v* (mdp), and each hit is
    weighted by the exact discrete Gaussian likelihood ratio.  The estimate
    is unbiased for the frozen-law dynamics whatever the shift; the shift
    makes it efficient when the minimizer's control is the optimal tilt.
    When the reference control kernel is model.k2 itself, the minimizer call
    doubles as the reference rate.
    """
    if mode not in ("ldp", "mdp"):
        raise ValueError("mode must be 'ldp' or 'mdp'")
    if method not in ("crude", "importance"):
        raise ValueError("method must be 'crude' or 'importance'")
    if mode == "mdp" and not (0.0 < h_beta < 0.5):
        raise ValueError("h_beta must lie in (0, 1/2)")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    x0_path = None
    if mode == "mdp":
        x0_path = solve_deterministic_limit(model.k1, model.coeffs, xi_arr, grid)
    eps_sorted = sorted(float(e) for e in eps_list)
    if seed_indices is None:
        seed_indices = list(range(len(eps_sorted)))
    if len(seed_indices) != len(eps_sorted):
        raise ValueError("seed_indices must match eps_list in length")
    reference = None
    if method == "importance":
        tilt = minimize_rate_endpoint(model, mode, event, grid, xi=xi_arr, kc=model.k2)
        ref_kc = kc if kc is not None else (model.k1 if mode == "ldp" else model.k2)
        if with_reference and ref_kc is model.k2:
            reference = tilt.rate
    cells = []
    for idx, eps in zip(seed_indices, eps_sorted):
        cell_seed = _rng.derived_seed(seed, idx)
        h = eps ** (-h_beta) if mode == "mdp" else 1.0
        # keep only the states: the driver increments are not needed past this
        states = simulate_particles(model.k1, model.k2, model.coeffs, xi_arr, eps,
                                    grid, n_particles, cell_seed).states
        terminal = states[:, -1, :]
        log_w = None
        if method == "importance":
            theta = (tilt.v_star.values / np.sqrt(eps) if mode == "ldp"
                     else h * tilt.v_star.values)
            terminal, log_w = _tagged_terminal(model, xi_arr, eps, grid, states,
                                               n_particles, cell_seed, theta)
        if mode == "mdp":
            values = (terminal - x0_path[-1][None, :]) / (np.sqrt(eps) * h)
        else:
            values = terminal
        hit = values @ event.normal >= event.level
        hits = int(np.count_nonzero(hit))
        if hits == 0:
            cells.append(TailCell(eps=eps, h=h, n_hits=0, p_hat=None,
                                  normalized_decay=None, censored=True, resolved=False,
                                  method=method))
            continue
        if log_w is None:
            p_hat = hits / n_particles
            log_p = float(np.log(p_hat))
            _, rel_stderr = _weighted_tail(np.zeros(hits), n_particles)
        else:
            log_p, rel_stderr = _weighted_tail(log_w[hit], n_particles)
            p_hat = float(np.exp(log_p))
        decay = -log_p / (h * h) if mode == "mdp" else -eps * log_p
        resolved = hits >= RESOLVED_HITS and rel_stderr <= RESOLVED_HITS ** -0.5
        cells.append(TailCell(eps=eps, h=h, n_hits=hits, p_hat=p_hat,
                              normalized_decay=decay, censored=False,
                              resolved=resolved, method=method, rel_stderr=rel_stderr))
    if with_reference and reference is None:
        reference = minimize_rate_endpoint(model, mode, event, grid, xi=xi_arr, kc=kc).rate
    return TailProbeResult(mode=mode, cells=tuple(cells), rate_reference=reference)
