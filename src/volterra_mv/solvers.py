"""Solvers for kernel-weighted mean-field dynamics on a shared uniform grid.

Three kinds of objects are produced here:

* the deterministic small-noise limit, whose law argument is its own Dirac
  path,
* interacting-particle ensembles for the noisy system, whose every step sums
  over the whole past (the dynamics are non-Markovian), with counter-based
  noise so that ensembles with the same seed share driver increments across
  different noise levels,
* controlled variants of both on the state scale, with the control entering
  through its own kernel, used by the rate-function machinery.

All schemes evaluate coefficients at the left endpoint of each cell and
integrate the kernel exactly across the cell (cell-averaged weights), the
first-order discretization that stays finite for singular kernels and keeps
the driver coupling exact.  The scheme is explicit, so every solver is one
forward march, with its history sums kept by ``kernels.History``; the march
lands on the discrete fixed point that successive approximation would reach.
Every nonlinear solver runs the particle march: the limit and the controlled
skeleton are its noise-free runs of one particle.  The march keeps no path:
what a solver keeps is what its fold takes from each node's state slab.  The
linear equations along the limit path, the mdp skeleton and the clt limit,
run one linear march.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet
from .errors import BlowUpError, GridMismatchError
from .grids import TimeGrid
from .kernels import (HISTORY_BLOCK, Kernel, Workspace, _one_blas_thread_below, history_bytes,
                      march_weights)
from .measures import EmpiricalMeasure
from . import rng as _rng

OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class Model:
    """Kernel pair plus coefficients: everything the stochastic system needs."""

    k1: Kernel
    k2: Kernel
    coeffs: CoefficientSet


@dataclass
class ControlPath:
    """Discrete control v on the grid cells with energy 0.5 * sum |v_k|^2 dt."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n_steps:
            raise GridMismatchError("control must have one value per grid cell")
        self.values = v

    @classmethod
    def constant(cls, grid: TimeGrid, value, m: int = 1) -> "ControlPath":
        val = np.broadcast_to(np.asarray(value, dtype=float), (m,))
        return cls(grid=grid, values=np.tile(val, (grid.n_steps, 1)))

    @classmethod
    def zero(cls, grid: TimeGrid, m: int = 1) -> "ControlPath":
        return cls(grid=grid, values=np.zeros((grid.n_steps, m)))

    @property
    def energy(self) -> float:
        return 0.5 * float(np.sum(self.values**2)) * self.grid.dt


@dataclass
class PathEnsemble:
    """N particle trajectories and the driver increments that moved them.

    A pass that draws its own increments reads them a block of steps at a
    time and keeps none: its ensemble is built with ``driver_increments`` None
    and the number of components m, and draws them again, bit for bit, from
    (seed, tag) on their first read, since the noise is counter-based.  An
    ensemble built with ``states`` None holds no path, and reading its
    ``states`` raises AttributeError.
    """

    grid: TimeGrid
    states: np.ndarray | None     # (N, n_steps + 1, d)
    driver_increments: np.ndarray | None  # (N, n_steps, m)
    seed: int
    tag: str
    eps: float
    _components: int = field(default=0, repr=False)

    def __post_init__(self):
        # __getattr__ draws the increments on their first read; an ensemble
        # without states has none to read
        if self.driver_increments is None:
            del self.driver_increments
        if self.states is None:
            del self.states

    def __getattr__(self, name):
        # reached only when normal lookup fails: for driver_increments, when
        # the pass kept none; for states, and for dim, whose read of states
        # failed, when the ensemble holds no path
        if name in ("states", "dim"):
            raise AttributeError(f"{name}: this ensemble holds no path, only its driver increments")
        if name != "driver_increments":
            raise AttributeError(name)
        self.driver_increments = _rng.normal_increments(
            self.seed, self.tag, self.n_particles, self.grid.n_steps, self._components,
            self.grid.dt)
        return self.driver_increments

    @property
    def n_particles(self) -> int:
        # an ensemble without states holds its increments
        return (self.states if "states" in vars(self) else self.driver_increments).shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]


def _guard(x: np.ndarray, step: int) -> None:
    # max |x| without an |x| copy: max(max x, -min x), nan where any x is
    mx = float(np.maximum(x.max(), -x.min())) if x.size else 0.0
    if not np.isfinite(mx) or mx > OVERFLOW_GUARD:
        raise BlowUpError(
            f"trajectory magnitude {mx:.3e} exceeded the overflow guard at step {step}",
            step=step, magnitude=mx,
        )


def _noise_term(si: np.ndarray, dw: np.ndarray, product: np.ndarray | None) -> np.ndarray:
    """The flat noise term einsum("ndm,nm->nd", si, dw) of one step.  At
    d = m = 1 it is the product, made into ``product``, plus +0.0: einsum's
    one-term sum 0 + s dw, which makes a -0.0 product +0.0."""
    if product is None:
        return np.einsum("ndm,nm->nd", si, dw).reshape(-1)
    out = np.multiply(si.reshape(-1), dw.reshape(-1), out=product)
    out += 0.0
    return out


def _given_blocks(increments: np.ndarray):
    """The block source of given increments (N, n, m): steps s0 <= s < s1 as
    one time-major (s1 - s0, N, m) array, a slice of time-major storage (such
    as that of ``normal_increments``) or else a copy."""
    return lambda s0, s1: np.ascontiguousarray(increments[:, s0:s1].transpose(1, 0, 2))


def _drawn_blocks(seed: int, tag: str, n_particles: int, grid: TimeGrid, m: int,
                  workspace: Workspace | None = None):
    """The block source of a pass that draws its own increments, keyed by
    (seed, tag): only the steps asked for are drawn, each block in the draw
    scratch of ``workspace``, or of a workspace of the source's own."""
    pool = Workspace() if workspace is None else workspace
    return lambda s0, s1: _rng._step_increments(seed, tag, n_particles, s0, s1, m, grid.dt,
                                                pool.draws(n_particles, HISTORY_BLOCK, m))


def _time_major_steps(blocks, n: int):
    """Yield the n steps in order, each as one contiguous (N, m) slab, from a
    block source ``blocks(s0, s1)`` of time-major (s1 - s0, N, m) increments
    read HISTORY_BLOCK steps at a time."""
    for s0 in range(0, n, HISTORY_BLOCK):
        yield from blocks(s0, min(s0 + HISTORY_BLOCK, n))


def _initial_states(xi, n_particles: int, d: int, seed: int) -> np.ndarray:
    if callable(xi):
        rng = np.random.default_rng(_rng.derived_seed(seed, 0x696E6974))
        draws = np.asarray(xi(n_particles, rng), dtype=float)
        if draws.shape != (n_particles, d):
            raise ValueError(f"random initial condition must return shape {(n_particles, d)}")
        return draws
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if arr.shape != (d,):
        raise ValueError(f"initial condition must have shape ({d},)")
    return np.tile(arr, (n_particles, 1))


def _along_path(grid: TimeGrid, law: np.ndarray, *evaluators, at=None) -> list:
    """One stack per evaluator f of f(t_k, at[k][None, :], delta_{law[k]})[0]
    over the cells k < n, the law frozen at the Dirac of a deterministic path
    at each cell's left node, built once per cell; ``at`` defaults to law."""
    at = law if at is None else at
    stacks = [None] * len(evaluators)
    for k, t in enumerate(grid.times[:-1]):
        mu = EmpiricalMeasure.dirac(law[k])
        for j, f in enumerate(evaluators):
            value = f(t, at[k][None, :], mu)[0]
            if k == 0:  # filled in place: a list of n cells and its copy hold twice as much
                stacks[j] = np.empty((grid.n_steps,) + np.shape(value), np.result_type(value))
            stacks[j][k] = value
    return stacks


def _one_path(k1: Kernel, kc: Kernel | None, coeffs: CoefficientSet, xi, grid: TimeGrid,
              v: ControlPath | None, law: np.ndarray | None) -> np.ndarray:
    """The path (n+1, d) of the noise-free pass of one particle from a
    deterministic xi, which reads no increments."""
    if callable(xi):
        raise ValueError("the noise-free solvers need a deterministic initial condition")
    return _particle_pass(k1, None, kc, coeffs, xi, 0.0, grid, 1, 0, None, v=v, law=law).states[0]


def solve_deterministic_limit(k1: Kernel, coeffs: CoefficientSet, xi,
                              grid: TimeGrid) -> np.ndarray:
    """Noise-free limit path: x_t = xi + int_0^t K1(t,s) b(s, x_s, delta_{x_s}) ds.

    One particle of the particle march, under its own Dirac law and without
    noise: one forward march of the discrete scheme, which is its exact
    fixed point.
    """
    return _one_path(k1, None, coeffs, xi, grid, None, None)


def _simulate(k1: Kernel, k2: Kernel | None, kc: Kernel | None, coeffs: CoefficientSet,
              xi, grid: TimeGrid, n_particles: int, seed: int,
              v: ControlPath | None = None, noise_scale: float = 0.0,
              law: np.ndarray | None = None, blocks=None, fold=None,
              workspace: Workspace | None = None) -> np.ndarray:
    """The one explicit march of every nonlinear solver.

    Holds only the current (N, d) state slab and returns the last one, the
    terminal state.  ``fold(i, x_i)``, if given, is called on node 0 and then
    on each new slab x_i; every slab is a fresh array, so a fold may keep it.
    ``blocks(s0, s1)`` gives the driver increments of steps s0 <= s < s1 as
    one time-major (s1 - s0, N, m) array; they are read a block of
    HISTORY_BLOCK steps at a time, and not at all without noise.
    ``law`` is None for the ensemble's own empirical law, else states
    (N', n+1, d) whose empirical law at each node is frozen in.
    ``workspace`` lends the march the buffers of its history sums and takes
    them back when it ends; without it the march allocates its own.  A march
    narrower than ``kernels.BLAS_THREADED_WIDTH`` runs on one BLAS thread.
    """
    d = coeffs.d
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    x = _initial_states(xi, n_particles, d, seed)
    if fold is not None:
        fold(0, x)
    base = x.reshape(-1)

    flat = (n_particles * d,)
    pool = Workspace() if workspace is None else workspace
    drift = pool.history(march_weights(k1, grid), flat)
    noise = pool.history(march_weights(k2, grid), flat) if noise_scale != 0.0 else None
    ctrl = pool.history(march_weights(kc, grid), flat) if v is not None else None
    steps = _time_major_steps(blocks, n) if noise is not None else None
    # at d = m = 1 the noise term is a product, into one buffer
    product = np.empty(flat) if noise is not None and d == coeffs.m == 1 else None
    own_law = law is None

    with _one_blas_thread_below(flat[0]):
        for i in range(n):
            t = times[i]
            mu = EmpiricalMeasure(points=x if own_law else law[:, i, :], _validate=False)
            bi = coeffs.drift(t, x, mu)
            nxt = base + dt * drift.push(bi.reshape(-1))
            if ctrl is not None or noise is not None:
                si = coeffs.diffusion(t, x, mu)
            if ctrl is not None:
                nxt = nxt + dt * ctrl.push((si @ v.values[i]).reshape(-1))
            if noise is not None:
                nxt = nxt + noise_scale * noise.push(_noise_term(si, next(steps), product))
            _guard(nxt, i + 1)
            x = nxt.reshape(n_particles, d)
            if fold is not None:
                fold(i + 1, x)

    pool.release(drift, noise, ctrl)
    return x


def _particle_pass(k1: Kernel, k2: Kernel, kc: Kernel | None, coeffs: CoefficientSet, xi,
                   eps: float, grid: TimeGrid, n_particles: int, seed: int,
                   driver_increments, v: ControlPath | None = None,
                   law: np.ndarray | None = None) -> PathEnsemble:
    """A particle march with noise sqrt(eps) on the "particles" stream, as an
    ensemble whose path a recording fold kept.  Given increments are read a
    block at a time and kept; without them the march draws its own a block at
    a time and keeps none."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError("eps must lie in [0, 1]")
    if n_particles < 1:
        raise ValueError("need at least one particle")
    m = coeffs.m
    if driver_increments is None:
        dw, blocks = None, _drawn_blocks(seed, "particles", n_particles, grid, m)
    else:
        dw = np.asarray(driver_increments, dtype=float)
        if dw.shape != (n_particles, grid.n_steps, m):
            raise GridMismatchError("injected driver increments have the wrong shape")
        blocks = _given_blocks(dw)
    states = np.empty((n_particles, grid.n_steps + 1, coeffs.d))

    def record(i, x_i):
        states[:, i] = x_i

    _simulate(k1, k2, kc, coeffs, xi, grid, n_particles, seed, v=v,
              noise_scale=float(np.sqrt(eps)), law=law, blocks=blocks, fold=record)
    return PathEnsemble(grid=grid, states=states, driver_increments=dw, seed=seed,
                        tag="particles", eps=eps, _components=m)


def simulate_particles(k1: Kernel, k2: Kernel, coeffs: CoefficientSet, xi,
                       eps: float, grid: TimeGrid, n_particles: int, seed: int,
                       driver_increments: np.ndarray | None = None) -> PathEnsemble:
    """Interacting-particle system with empirical-law coupling and noise sqrt(eps).

    Reproducible: the output is a pure function of (seed, grid, N, model), and
    two calls with the same seed but different eps consume identical driver
    increments, which is what couples the small-noise family pathwise.
    """
    return _particle_pass(k1, k2, None, coeffs, xi, eps, grid, n_particles, seed,
                          driver_increments)


def simulate_controlled(k1: Kernel, k2: Kernel, kc: Kernel, coeffs: CoefficientSet,
                        xi, eps: float, v: ControlPath, grid: TimeGrid,
                        n_particles: int, seed: int,
                        frozen_path: np.ndarray | None = None,
                        driver_increments: np.ndarray | None = None) -> PathEnsemble:
    """Controlled state dynamics with the control integrand sigma(.) v under kernel kc.

    The state equation has its drift under k1, the control under kc and the
    noise sqrt(eps) under k2; with v identically zero it reproduces
    simulate_particles bit for bit at the same seed.

    Passing frozen_path freezes the law: it replaces the ensemble's own law,
    and is either a Dirac path of shape (n_steps + 1, d) or the states
    (N', n_steps + 1, d) of another ensemble, whose empirical law at each
    node is used.  Without it the ensemble runs under its own law.  Freezing
    an ensemble's own states, with its own driver increments and v = 0,
    reproduces it bit for bit.
    """
    if v.grid != grid:
        raise GridMismatchError("control path lives on a different grid")
    law = None
    if frozen_path is not None:
        # a Dirac path (n+1, d) is the one-atom case of particle states (N', n+1, d)
        n, d = grid.n_steps, coeffs.d
        law = np.asarray(frozen_path, dtype=float)
        if law.shape == (n + 1, d):
            law = law[None]
        if law.ndim != 3 or law.shape[0] < 1 or law.shape[1:] != (n + 1, d):
            raise GridMismatchError(
                "frozen_path must be a Dirac path (n+1, d) or particle states "
                "(N', n+1, d) on the grid nodes"
            )
    return _particle_pass(k1, k2, kc, coeffs, xi, eps, grid, n_particles, seed,
                          driver_increments, v=v, law=law)


def solve_controlled_deterministic(k1: Kernel, kc: Kernel, coeffs: CoefficientSet,
                                   xi, v: ControlPath, x0_path: np.ndarray,
                                   mode: str, grid: TimeGrid) -> np.ndarray:
    """Deterministic controlled equations, with the law frozen at the limit path.

    Both modes are one forward march of the explicit discrete scheme.
    mode="ldp", one noise-free particle of the particle march: the equation
        phi_t = xi + int K1 b(s, phi_s, delta_{x0_s}) + int Kc sigma(s, phi_s, delta_{x0_s}) v_s.
    mode="mdp_linearized", one path of the linear march driven by v: the system
        psi_t = int K1 grad_b(s, x0_s, delta_{x0_s}) psi_s + int Kc sigma(s, x0_s, delta_{x0_s}) v_s.
    """
    d = coeffs.d
    n = grid.n_steps
    if v.grid != grid:
        raise GridMismatchError("control path lives on a different grid")
    x0_path = np.asarray(x0_path, dtype=float)
    if x0_path.ndim == 1:
        x0_path = x0_path[:, None]
    if x0_path.shape != (n + 1, d):
        raise GridMismatchError("limit path must be given on the grid nodes")
    if mode == "ldp":
        return _one_path(k1, kc, coeffs, xi, grid, v, x0_path[None])
    if mode != "mdp_linearized":
        raise ValueError(f"unknown mode {mode!r}")
    return _linear_march(k1, kc, coeffs, x0_path, grid, v.values[None], grid.dt)[0]


def _linear_march(k1: Kernel, kf: Kernel, coeffs: CoefficientSet, x0_path: np.ndarray,
                  grid: TimeGrid, drivers: np.ndarray, scale: float,
                  mean_field: bool = False, workspace: Workspace | None = None) -> np.ndarray:
    """The one explicit march of the linear equations along the limit path.

    States (N, n+1, d) from zero, a transposed view of the time-major march, of
        z[i+1] = dt sum_k w1[i+1, k] (grad_b_k z_k [+ lions_b_k mean(z_k)])
                 + scale sum_k wf[i+1, k] sigma_k u_k,
    with u = drivers (N, n, m) and every coefficient taken at x0_path under its
    Dirac law; the measure-derivative term enters when ``mean_field`` is set.
    ``workspace`` lends the history buffers, as in ``_simulate``.
    """
    n_paths, d = drivers.shape[0], coeffs.d
    n = grid.n_steps
    dt = grid.dt
    # lions_b is paired against the atom of the Dirac law itself
    lions = [lambda t, x, mu: coeffs.drift_measure_derivative(t, x[0], mu, x)]
    grads, *dls, sig = _along_path(grid, x0_path, coeffs.drift_gradient,
                                   *(lions if mean_field else []), coeffs.diffusion)

    flat = (n_paths * d,)
    pool = Workspace() if workspace is None else workspace
    drift = pool.history(march_weights(k1, grid), flat)
    forced = pool.history(march_weights(kf, grid), flat)
    z = np.empty((n + 1, n_paths, d))  # time-major: node i is one (N, d) slab
    z[0] = 0.0
    with _one_blas_thread_below(flat[0]):
        for i, ui in enumerate(_time_major_steps(_given_blocks(drivers), n)):
            zi = z[i]
            bi = np.dot(zi, grads[i].T)
            if mean_field:
                bi = bi + np.dot(zi.mean(axis=0), dls[0][i].T)[None, :]
            fi = np.dot(ui, sig[i].T)
            nxt = dt * drift.push(bi.reshape(-1)) + scale * forced.push(fi.reshape(-1))
            z[i + 1] = nxt.reshape(n_paths, d)
    pool.release(drift, forced)
    return z.transpose(1, 0, 2)


def pass_bytes(n_particles: int, n_steps: int, d: int, m: int, nodes: int,
               draws: bool = False) -> int:
    """Bytes a particle or linear march of N particles holds: per particle its
    states on the ``nodes`` it keeps and a block of at most HISTORY_BLOCK
    steps of increments; its drift and noise histories; and the draw scratch
    of a pass that draws its own increments."""
    return (8 * n_particles * (nodes * d + min(HISTORY_BLOCK, n_steps) * m)
            + 2 * history_bytes(n_particles * d, n_steps)
            + (_rng.scratch_bytes(n_particles, HISTORY_BLOCK, m) if draws else 0))


def ensemble_summary(ensemble: PathEnsemble, p_list=(2,)) -> dict:
    """Per-node mean/variance per component and p-moments of the norm."""
    s = ensemble.states
    mean = s.mean(axis=0)
    # the steps of s.var(axis=0) on the mean already taken, bit for bit
    dev = s - mean
    dev *= dev
    out = {"t": ensemble.grid.times, "mean": mean, "var": dev.mean(axis=0)}
    del dev
    if s.shape[2] <= 2:
        # np.linalg.norm's sqrt of the summed squares without its reduction
        # over the short last axis: no order of two terms changes a bit
        norms = s[..., 0] * s[..., 0]
        if s.shape[2] == 2:
            norms += s[..., 1] * s[..., 1]
        np.sqrt(norms, out=norms)
    else:
        norms = np.linalg.norm(s, axis=2)
    for p in p_list:
        out[f"moment_p{p}"] = (norms**p).mean(axis=0)
    return out
