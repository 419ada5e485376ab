"""Coupled fluctuation pairs and scaling diagnostics.

The rescaled deviation of the noisy system from its deterministic limit is
simulated pathwise and coupled, through shared driver increments, to the
linear-with-frozen-diffusion equation it converges to.  The linear equation's
mean-field term (the measure derivative of the drift paired against the law
of the fluctuation) is approximated by the ensemble mean of the same
particles, a propagation-of-chaos proxy whose O(N^-1/2) error is folded into
the experiment tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as _rng
from .grids import TimeGrid
from .solvers import (Model, PathEnsemble, _linear_march, simulate_particles,
                      solve_deterministic_limit)

# floats in one block's temporaries in _sup_gap and holder_probe (1 MB each)
_BLOCK_FLOATS = 1 << 17
# clt_gap's bootstrap resamples and holder_probe's cap on node pairs, each
# drawn from a generator seeded with 0
_BOOTSTRAP_RESAMPLES = 200
_HOLDER_MAX_PAIRS = 10**6


def _sup_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sup_t |a_t - b_t| of each particle, (N,), for states a of shape
    (N, n+1, d) and b broadcasting against them."""
    # a running max over blocks of steps: the temporaries stay one block
    # wide, and the max is exact, so the result is that of one block
    n_particles, nodes, d = a.shape
    width = max(1, _BLOCK_FLOATS // max(1, n_particles * d))
    sup = np.full(n_particles, -np.inf)
    for lo in range(0, nodes, width):
        gap = np.linalg.norm(a[:, lo:lo + width] - b[:, lo:lo + width], axis=2)
        np.maximum(sup, gap.max(axis=1), out=sup)
    return sup


@dataclass
class FluctuationPair:
    """Rescaled deviation and its limiting linear process on shared drivers."""

    z_eps: PathEnsemble
    z_lim: PathEnsemble
    eps: float
    x0_path: np.ndarray

    def __post_init__(self):
        if self.z_eps.seed != self.z_lim.seed or self.z_eps.tag != self.z_lim.tag:
            raise ValueError("fluctuation pair must share one driver stream")
        if (np.abs(self.z_eps.states[:, 0, :]).max(initial=0.0) > 0.0
                or np.abs(self.z_lim.states[:, 0, :]).max(initial=0.0) > 0.0):
            raise ValueError("fluctuations must start at zero")

    @cached_property
    def sup_gap(self) -> np.ndarray:
        """sup_t |Z^eps_t - Z_t| of each particle, (N,); every p reuses it."""
        sup = _sup_gap(self.z_eps.states, self.z_lim.states)
        sup.flags.writeable = False  # one array serves every caller
        return sup


def clt_pair(model: Model, xi, eps: float, grid: TimeGrid, n_particles: int,
             seed: int, limit: FluctuationPair | None = None) -> FluctuationPair:
    """Simulate the coupled pair (Z^eps, Z) for deterministic initial data.

    Z^eps is (X^eps - X^0) / sqrt(eps) computed pathwise against the same
    grid solution X^0; Z solves the linear equation driven by the frozen
    diffusion and the drift linearization (state gradient plus the
    measure-derivative term paired with the ensemble mean), on the very same
    driver increments.

    None of X^0, the driver increments and Z depends on eps.  ``limit``, a
    pair from an earlier eps of the same model, xi, grid, N and seed, lends
    them to this one, so only the eps-dependent particle pass runs; the
    result is bitwise that of a call without it.  Only its x0_path and z_lim
    are read, so a sweep may drop its z_eps before the next call.
    """
    coeffs = model.coeffs
    if callable(xi):
        raise ValueError("fluctuation experiments need a deterministic initial condition")
    if coeffs.grad_b is None or coeffs.lions_b is None:
        raise ValueError("fluctuation limit needs grad_b and lions_b")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")

    if limit is None:
        x0 = solve_deterministic_limit(model.k1, coeffs, xi, grid)
        # both the particle pass and the Z march read them: draw them once
        dw = _rng.normal_increments(seed, "particles", n_particles, grid.n_steps,
                                    coeffs.m, grid.dt)
    else:
        lim = limit.z_lim
        if lim.seed != seed or lim.grid != grid or lim.n_particles != n_particles:
            raise ValueError("limit pair was drawn with another seed, grid or particle count")
        if not np.array_equal(limit.x0_path[0], np.atleast_1d(np.asarray(xi, dtype=float))):
            raise ValueError("limit pair starts from another initial condition")
        x0, dw = limit.x0_path, lim.driver_increments
    ens = simulate_particles(model.k1, model.k2, coeffs, xi, eps, grid,
                             n_particles, seed, driver_increments=dw)
    # the ensemble is private to this call: rescale its states in place
    z_eps_states = ens.states
    z_eps_states -= x0[None, :, :]
    z_eps_states /= np.sqrt(eps)
    z = (_linear_march(model.k1, model.k2, coeffs, x0, grid, dw, 1.0, mean_field=True)
         if limit is None else limit.z_lim.states)

    z_eps = PathEnsemble(grid=grid, states=z_eps_states, driver_increments=dw,
                         seed=seed, tag=ens.tag, eps=eps)
    z_lim = PathEnsemble(grid=grid, states=z, driver_increments=dw,
                         seed=seed, tag=ens.tag, eps=eps)
    return FluctuationPair(z_eps=z_eps, z_lim=z_lim, eps=eps, x0_path=x0)


@dataclass(frozen=True)
class GapEstimate:
    value: float
    stderr: float
    p: float
    n_particles: int


def clt_gap(pair: FluctuationPair, p: float = 2.0) -> GapEstimate:
    """Monte Carlo estimate of E[sup_t |Z^eps_t - Z_t|^p] with bootstrap stderr."""
    if p < 1:
        raise ValueError("p must be at least 1")
    vals = pair.sup_gap**p
    est = float(vals.mean())
    rng = np.random.default_rng(0)
    n = vals.size
    boots = np.empty(_BOOTSTRAP_RESAMPLES)
    # resamples drawn a block of rows at a time, at most 256 KB of indices
    # unless one row is more; the draws and the row means are those of one
    # resample at a time
    rows = max(1, (1 << 15) // n)
    for lo in range(0, _BOOTSTRAP_RESAMPLES, rows):
        idx = rng.integers(0, n, size=(min(rows, _BOOTSTRAP_RESAMPLES - lo), n))
        boots[lo:lo + len(idx)] = vals[idx].mean(axis=1)
    return GapEstimate(value=est, stderr=float(boots.std(ddof=1)), p=p, n_particles=n)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r2: float


def scaling_regression(quantity) -> RegressionResult:
    """Log-log least squares of a positive quantity against its positive argument.

    ``quantity`` maps argument -> value (a dict or an iterable of pairs);
    needs at least 4 points spanning at least two decades.
    """
    if hasattr(quantity, "items"):
        pairs = sorted(quantity.items())
    else:
        pairs = sorted(tuple(p) for p in quantity)
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    if x.size < 4:
        raise ValueError("need at least 4 sample points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("regression inputs must be positive")
    if x.max() / x.min() < 100.0:
        raise ValueError("sample points must span at least two decades")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum((ly - fit) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(slope=float(slope), intercept=float(intercept), r2=r2)


@dataclass(frozen=True)
class HolderEstimate:
    max_ratio_stat: float
    alpha: float
    n_pairs: int


def holder_probe(ensemble: PathEnsemble, alpha: float) -> HolderEstimate:
    """Ensemble mean of the largest increment ratio |X_t - X_s| / |t - s|^alpha.

    Node pairs are subsampled deterministically to at most 10^6.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    grid = ensemble.grid
    n = grid.n_steps
    if n < 1:
        raise ValueError("degenerate grid")
    total = (n + 1) * n // 2
    ii, jj = np.triu_indices(n + 1, k=1)
    if total > _HOLDER_MAX_PAIRS:
        rng = np.random.default_rng(0)
        keep = rng.choice(total, size=_HOLDER_MAX_PAIRS, replace=False)
        ii, jj = ii[keep], jj[keep]
    dt_pow = (grid.times[jj] - grid.times[ii]) ** alpha
    best = np.zeros(ensemble.n_particles)
    # blocks of pairs of at most _BLOCK_FLOATS state differences: the ratios
    # are elementwise and the max is exact, so the blocks do not move a bit
    chunk = max(1, _BLOCK_FLOATS // max(1, ensemble.n_particles * ensemble.dim))
    for lo in range(0, ii.size, chunk):
        hi = min(lo + chunk, ii.size)
        diff = ensemble.states[:, jj[lo:hi], :] - ensemble.states[:, ii[lo:hi], :]
        ratio = np.linalg.norm(diff, axis=2) / dt_pow[lo:hi][None, :]
        best = np.maximum(best, ratio.max(axis=1))
    return HolderEstimate(max_ratio_stat=float(best.mean()), alpha=alpha, n_pairs=int(ii.size))


def strong_error_vs_eps(model: Model, xi, eps_list, grid: TimeGrid,
                        n_particles: int, seed: int) -> dict:
    """E sup_t |X^eps - X^0| per eps, all ensembles coupled through one seed."""
    x0 = solve_deterministic_limit(model.k1, model.coeffs, xi, grid)
    # every eps draws the same increments (same seed and tag): draw them once
    dw = _rng.normal_increments(seed, "particles", n_particles, grid.n_steps,
                                model.coeffs.m, grid.dt)
    out = {}
    for eps in eps_list:
        ens = simulate_particles(model.k1, model.k2, model.coeffs, xi, float(eps),
                                 grid, n_particles, seed, driver_increments=dw)
        out[float(eps)] = float(_sup_gap(ens.states, x0[None, :, :]).mean())
    return out
