"""Rate functionals as first-kind inversions, and endpoint minimization.

Evaluates the control energy needed to steer the limit dynamics (or its
linearization) along a target path, verifies the round trip through the
forward map, and minimizes the energy over a terminal halfspace.
"""

import numpy as np

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    ControlPath,
    Halfspace,
    Model,
    RateProblem,
    TimeGrid,
    ldp_rate,
    mdp_rate,
    minimize_rate_endpoint,
    solve_controlled_deterministic,
    solve_deterministic_limit,
)

grid = TimeGrid(horizon=1.0, n_steps=500)
unit = ConstantKernel(1.0)
plain = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0).coefficients()
zeros = np.zeros((grid.n_steps + 1, 1))

print("== deviation rate of the linear ramp psi_t = t ==")
sol = mdp_rate(RateProblem(mode="mdp", k1=unit, kc=unit, coeffs=plain,
                           grid=grid, x0_path=zeros, target=grid.times[:, None]))
print("rate:", sol.rate, " (the constant unit control costs 1/2)")
print("recovered control range:", sol.v_star.values.min(), "..", sol.v_star.values.max())

print("\n== quadratic scaling of the deviation rate ==")
for c in (2.0, 3.0):
    scaled = mdp_rate(RateProblem(mode="mdp", k1=unit, kc=unit, coeffs=plain,
                                  grid=grid, x0_path=zeros,
                                  target=c * grid.times[:, None]))
    print(f"rate(c = {c}) = {scaled.rate:.12f}  (c^2 * base = {c * c * sol.rate:.12f})")

print("\n== round trip through the controlled limit equation ==")
coeffs = BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients()
x0 = solve_deterministic_limit(unit, coeffs, 1.0, grid)
rng = np.random.default_rng(2)
v = ControlPath(grid=grid, values=rng.normal(size=(grid.n_steps, 1)))
target = solve_controlled_deterministic(unit, unit, coeffs, 1.0, v, x0, "ldp", grid)
sol = ldp_rate(RateProblem(mode="ldp", k1=unit, kc=unit, coeffs=coeffs,
                           grid=grid, x0_path=x0, target=target))
print("generating energy :", v.energy)
print("recovered rate    :", sol.rate)
print("residual          :", sol.residual)

print("\n== cheapest control reaching a terminal halfspace ==")
model = Model(k1=unit, k2=unit, coeffs=plain)
for level in (1.0, 2.0):
    best = minimize_rate_endpoint(model, "mdp", Halfspace([1.0], level),
                                  TimeGrid(1.0, 200), xi=0.0)
    print(f"level {level}: rate = {best.rate:.8f}  (level^2 / 2 = {level * level / 2})")
