"""Interacting particles under a fractional kernel.

Simulates the mean-field particle system driven by the fractional-Brownian
representation kernel and compares the sample variance profile with the exact
quadrature of the squared kernel; then shows the noiseless run collapsing
onto the deterministic limit.
"""

import numpy as np

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    FbmKernel,
    TimeGrid,
    integrate_kernel,
    simulate_particles,
    solve_deterministic_limit,
)
from volterra_mv.rng import normal_increments

grid = TimeGrid(horizon=1.0, n_steps=200)
unit = ConstantKernel(1.0)

print("== fractional noise: variance vs the squared-kernel integral ==")
kern = FbmKernel(0.7)
coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0).coefficients()
ens = simulate_particles(unit, kern, coeffs, 0.0, eps=1.0, grid=grid,
                         n_particles=20_000, seed=7)
print(f"{'t':>5} {'sample var':>12} {'oracle':>12} {'t^1.4':>12}")
for t in (0.25, 0.5, 1.0):
    i = grid.index_of(t)
    var = ens.states[:, i, 0].var()
    oracle = integrate_kernel(kern, t, 0.0, t, power=2)
    print(f"{t:5.2f} {var:12.5f} {oracle:12.5f} {t**1.4:12.5f}")

print("\n== mean-field coupling ==")
coupled = BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients()
ens = simulate_particles(unit, unit, coupled, 1.0, eps=0.05, grid=grid,
                         n_particles=5_000, seed=11)
x0 = solve_deterministic_limit(unit, coupled, 1.0, grid)
print("terminal ensemble mean:", ens.terminal().mean(), " limit value:", x0[-1, 0])
print("terminal spread (should scale like sqrt(eps)):", ens.terminal().std())

print("\n== eps = 0 collapses every particle onto the limit path ==")
frozen = simulate_particles(unit, unit, coupled, 1.0, eps=0.0, grid=grid,
                            n_particles=3, seed=11)
print("max |particles - limit| =", np.abs(frozen.states - x0[None]).max())

print("\n== the same seed reuses the same driver increments at every eps ==")
dw = normal_increments(3, "particles", 100, grid.n_steps, 1, grid.dt)
for eps in (0.5, 0.01):
    own = simulate_particles(unit, unit, coupled, 1.0, eps, grid, 100, seed=3)
    given = simulate_particles(unit, unit, coupled, 1.0, eps, grid, 100, seed=3,
                               driver_increments=dw)
    print(f"eps = {eps}: increments shared:", np.array_equal(own.states, given.states))
