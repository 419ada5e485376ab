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

from .coefficients import CoefficientSet
from .errors import BlowUpError, GridMismatchError, RankDeficiencyError
from .grids import TimeGrid
from .kernels import Kernel, grid_weights
from .solvers import (
    ControlPath,
    Model,
    _along_path,
    _drawn_blocks,
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
                f"target must start at {anchor.tolist()} (the initial condition for"
                f" ldp, zero for mdp), got {self.target[0].tolist()}"
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
    w1 = grid_weights(problem.k1, grid)
    wc = grid_weights(problem.kc, grid)
    target = problem.target
    x0 = problem.x0_path

    if problem.mode == "mdp":
        grads, sig = _along_path(grid, x0, coeffs.drift_gradient, coeffs.diffusion)
        drift_term = np.array([g_k @ y_k for g_k, y_k in zip(grads, target)])
        g = target[1:] - dt * (w1[1:, :] @ drift_term)
    else:
        drift_term, sig = _along_path(grid, x0, coeffs.drift, coeffs.diffusion, at=target)
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
    # a diffusion with d or m = 0 has no singular value: rank deficient
    sv = np.linalg.svd(sig, compute_uv=False)
    sig_min = sv.min(axis=1) if sv.shape[1] else np.zeros(n)
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


def _direct_rate(problem: RateProblem) -> RateSolution:
    """Invert the control system, then re-substitute the control to report the
    residual, attained within 1e-6 (1 + max |target|); the body of both
    mdp_rate and ldp_rate."""
    grid = problem.grid
    c, g, sig = _control_system(problem)
    wc = grid_weights(problem.kc, grid)
    lead = wc.diagonal(-1)
    v, lam = _solve_first_kind(c, g, problem.lam_reg, sig, lead, grid.dt)
    ctrl = ControlPath(grid=grid, values=v)
    mode = "mdp_linearized" if problem.mode == "mdp" else "ldp"
    resub = solve_controlled_deterministic(
        problem.k1, problem.kc, problem.coeffs, problem.x0_path[0], ctrl,
        problem.x0_path, mode, grid,
    )
    residual = float(np.max(np.abs(resub - problem.target)))
    residual_tol = 1e-6 * (1.0 + float(np.max(np.abs(problem.target))))
    return RateSolution(
        v_star=ctrl, rate=ctrl.energy, residual=residual,
        attained=residual <= residual_tol, lambda_used=lam,
    )


def mdp_rate(problem: RateProblem) -> RateSolution:
    """Moderate-deviation rate of a target path of the drift linearization.

    Moves the linear drift feedback to the right-hand side and solves the
    remaining first-kind control system in the minimum-norm least-squares
    sense (ridge-regularized when requested or when the control kernel's
    leading weights vanish); the rate is the recovered control energy.
    """
    if problem.mode != "mdp":
        raise ValueError("problem mode must be 'mdp'")
    return _direct_rate(problem)


def ldp_rate(problem: RateProblem) -> RateSolution:
    """Small-noise rate of a target path of the controlled limit equation.

    With the target fixed, the constraint is affine in the control, so it is
    inverted directly in the minimum-norm least-squares sense
    (ridge-regularized as in mdp_rate); the rate is the recovered control
    energy.
    """
    if problem.mode != "ldp":
        raise ValueError("problem mode must be 'ldp'")
    return _direct_rate(problem)


@dataclass(frozen=True)
class Halfspace:
    """Terminal event {x : <normal, x> >= level}."""

    normal: np.ndarray
    level: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.atleast_1d(np.asarray(self.normal, dtype=float)))


def _terminal_sensitivity(problem_mode, k1, kc, coeffs, x0_path, path, grid, normal):
    """Gradient of <normal, x_T> with respect to the stacked control values.

    Uses the exact linearization for the mdp mode and a Gauss-Newton
    linearization (drift gradient along the current path, diffusion frozen)
    for the ldp mode.
    """
    n, d = grid.n_steps, coeffs.d
    dt = grid.dt
    w1 = grid_weights(k1, grid)
    wc = grid_weights(kc, grid)
    ref = x0_path if problem_mode == "mdp" else path
    grads, sig = _along_path(grid, x0_path, coeffs.drift_gradient, coeffs.diffusion, at=ref)
    # adjoint of delta_x_i = dt sum_k<i w1[i, k] (grads_k delta_x_k + sig_k delta_v_k)
    # against the terminal functional, swept backward from q_n = normal
    q = np.zeros((n + 1, d))
    q[n] = normal
    for k in range(n - 1, -1, -1):
        q[k] = dt * grads[k].T @ (w1[k + 1:, k] @ q[k + 1:])
    return np.einsum("kdm,kd->km", sig, dt * (wc.T @ q)).reshape(-1)


GN_MAX_ITER = 50  # cap on Gauss-Newton iterations, and on secant steps per ray
GN_TOL = 1e-9  # terminal gap, relative to the problem scale; direction change


def _ray_root(gap_at, lam, slope, tol):
    """Secant steps from lam, with first slope -slope, until
    -tol <= gap_at(lam) <= 0: the path ends inside the event, within tol of
    its boundary.  A trial past the overflow guard halves back toward the last
    good lam (0 at first).  Returns the last good (lam, gap, path)."""
    prev, best = (0.0, None), None
    for _ in range(GN_MAX_ITER):
        try:
            gap, path = gap_at(lam)
        except BlowUpError:
            lam = 0.5 * (lam + prev[0])
            continue
        best = (lam, gap, path)
        if -tol <= gap <= 0.0:
            break
        if prev[1] is not None and gap != prev[1]:
            slope = (prev[1] - gap) / (lam - prev[0])
        prev = (lam, gap)
        # a hair short of the event: aim as far past its boundary
        lam += (2.0 * gap if 0.0 < gap <= tol else gap) / slope
    return best


def minimize_rate_endpoint(model: Model, mode: str, event: Halfspace, grid: TimeGrid,
                           xi=0.0, kc: Kernel | None = None) -> RateSolution:
    """Smallest control energy driving the limit dynamics into a terminal halfspace.

    Gauss-Newton on the stationarity condition v parallel to r(v), the terminal
    sensitivity: from v = 0, each iteration takes u = r(v) / |r(v)|, solves
    <normal, x_T(lam u)> = level by secant steps from the linear guess, and
    sets v = lam u, until r(v) points along u (v stops moving).  In mdp mode r does
    not depend on the path, so one iteration suffices.  attained is false if
    GN_MAX_ITER comes first.  The ldp sensitivity freezes a state-dependent
    sigma along the path: the d sigma / dx . v term is dropped.  The control
    kernel defaults to the drift kernel (ldp) or the noise kernel (mdp).
    """
    coeffs = model.coeffs
    if kc is None:
        kc = model.k1 if mode == "ldp" else model.k2
    n, m = grid.n_steps, coeffs.m
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    x0_path = solve_deterministic_limit(model.k1, coeffs, xi_arr, grid)
    forward_mode = "mdp_linearized" if mode == "mdp" else "ldp"

    def gap_at(vv):
        path = solve_controlled_deterministic(model.k1, kc, coeffs, xi_arr,
                                              ControlPath(grid=grid, values=vv),
                                              x0_path, forward_mode, grid)
        return event.level - float(path[-1] @ event.normal), path

    tol = GN_TOL * (1.0 + abs(event.level) + float(np.max(np.abs(x0_path))))
    v = np.zeros((n, m))
    gap, path = gap_at(v)
    stationary = gap <= tol  # the uncontrolled path already ends in the event
    iterations = 0
    r = _terminal_sensitivity(mode, model.k1, kc, coeffs, x0_path, path, grid,
                              event.normal).reshape(n, m)
    while not stationary and iterations < GN_MAX_ITER and r.any():
        r_norm = float(np.linalg.norm(r))
        u = r / r_norm
        # linearization at v: gap(lam u) ~ gap(v) - <r, lam u - v>
        lam0 = gap / r_norm + float(np.sum(u * v))
        lam, gap, path = _ray_root(lambda lam: gap_at(lam * u), lam0, r_norm, tol)
        v = lam * u
        r = _terminal_sensitivity(mode, model.k1, kc, coeffs, x0_path, path, grid,
                                  event.normal).reshape(n, m)
        iterations += 1
        # r(v) points along u: the next iteration would not move v
        r_norm = float(np.linalg.norm(r))
        stationary = -tol <= gap <= 0.0 and np.linalg.norm(r - r_norm * u) < GN_TOL * r_norm
    ctrl = ControlPath(grid=grid, values=v)
    return RateSolution(
        v_star=ctrl, rate=ctrl.energy, residual=max(0.0, gap),
        attained=bool(stationary), iterations=iterations,
        diagnostics={"terminal_value": float(path[-1] @ event.normal)},
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
    # Kish effective sample size of the hit weights; n_hits for crude cells
    ess: float | None = None


@dataclass(frozen=True)
class TailProbeResult:
    mode: str
    cells: tuple
    rate_reference: float | None


def _weighted_tail(log_w: np.ndarray, n: int):
    """Log of the mean of n indicators weighted by exp(log_w) on the hits (the
    misses weigh zero), its relative standard error and the Kish effective
    sample size (sum w)^2 / sum w^2 of the hits, evaluated relative to the
    largest log-weight so that none underflows."""
    top = float(log_w.max())
    s = np.exp(log_w - top)
    total = float(s.sum())
    square = float(s @ s)
    mean = total / n
    rel_stderr = None
    if n > 1:
        var = (square / n - mean * mean) * n / (n - 1)
        rel_stderr = float(np.sqrt(max(var, 0.0) / n)) / mean
    return top + float(np.log(mean)), rel_stderr, total * total / square


def _terminal(model: Model, xi_arr, eps: float, grid: TimeGrid, law: np.ndarray | None,
              n_particles: int, seed: int, blocks) -> np.ndarray:
    """Terminal states (N, d) of a particle pass that keeps only its current
    state slab, driven by the increments of the block source ``blocks``."""
    return _simulate(
        model.k1, model.k2, None, model.coeffs, xi_arr, grid, n_particles, seed,
        v=None, noise_scale=float(np.sqrt(eps)), law=law, blocks=blocks, keep_path=False,
    )[:, -1]


def _tagged_terminal(model: Model, xi_arr, eps: float, grid: TimeGrid, law: np.ndarray,
                     n_particles: int, seed: int, theta: np.ndarray):
    """Terminal states of tagged particles under the frozen empirical law path,
    with driver increments shifted by theta * dt, and their log likelihood
    ratios sum_k (-theta_k . dW_k + 0.5 |theta_k|^2 dt) in the shifted dW,
    summed a block of steps at a time as the pass reads them."""
    dt = grid.dt
    draw = _drawn_blocks(seed, "tagged", n_particles, grid, model.coeffs.m)
    log_w = np.full(n_particles, 0.5 * dt * float(np.sum(theta * theta)))

    def shifted(s0, s1):
        dw = draw(s0, s1)
        dw += theta[s0:s1, None, :] * dt
        log_w[:] -= np.einsum("knm,km->n", dw, theta[s0:s1])
        return dw

    return _terminal(model, xi_arr, eps, grid, law, n_particles, seed, shifted), log_w


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
    # the checks of simulate_particles, which a crude cell does not call
    if not all(0.0 <= float(e) <= 1.0 for e in eps_list):
        raise ValueError("eps must lie in [0, 1]")
    if n_particles < 1:
        raise ValueError("need at least one particle")
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
        log_w = None
        if method == "importance":
            # the untilted pass keeps its states: they are the frozen law
            law = simulate_particles(model.k1, model.k2, model.coeffs, xi_arr, eps,
                                     grid, n_particles, cell_seed).states
            theta = (tilt.v_star.values / np.sqrt(eps) if mode == "ldp"
                     else h * tilt.v_star.values)
            terminal, log_w = _tagged_terminal(model, xi_arr, eps, grid, law,
                                               n_particles, cell_seed, theta)
            del law
        else:
            terminal = _terminal(model, xi_arr, eps, grid, None, n_particles, cell_seed,
                                 _drawn_blocks(cell_seed, "particles", n_particles, grid,
                                               model.coeffs.m))
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
            _, rel_stderr, ess = _weighted_tail(np.zeros(hits), n_particles)
        else:
            log_p, rel_stderr, ess = _weighted_tail(log_w[hit], n_particles)
            p_hat = float(np.exp(log_p))
        decay = -log_p / (h * h) if mode == "mdp" else -eps * log_p
        resolved = hits >= RESOLVED_HITS and rel_stderr <= RESOLVED_HITS ** -0.5
        cells.append(TailCell(eps=eps, h=h, n_hits=hits, p_hat=p_hat,
                              normalized_decay=decay, censored=False,
                              resolved=resolved, method=method, rel_stderr=rel_stderr,
                              ess=ess))
    if with_reference and reference is None:
        reference = minimize_rate_endpoint(model, mode, event, grid, xi=xi_arr, kc=kc).rate
    return TailProbeResult(mode=mode, cells=tuple(cells), rate_reference=reference)
