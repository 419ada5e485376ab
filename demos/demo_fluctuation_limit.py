"""The rescaled fluctuation and its Gaussian limit, coupled pathwise.

The deviation of the noisy system from its limit, divided by sqrt(eps), is
simulated alongside the linear equation it converges to, on the same driver
increments.  For a linear drift with constant diffusion the two coincide to
rounding; switching on a state-dependent diffusion exposes the order-eps
mean-square gap.
"""

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    Model,
    TimeGrid,
    clt_gap,
    clt_pair,
    scaling_regression,
)

grid = TimeGrid(horizon=1.0, n_steps=200)
unit = ConstantKernel(1.0)

print("== linear drift, constant diffusion: exact coupling ==")
linear = Model(k1=unit, k2=unit,
               coeffs=BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients())
pair = clt_pair(linear, xi=1.0, eps=1e-2, grid=grid, n_particles=2_000, seed=5)
print("E sup |Z^eps - Z|^2 =", clt_gap(pair, p=2).value, " (rounding level)")

print("\n== affine diffusion: the gap decays linearly in eps ==")
affine = Model(k1=unit, k2=unit,
               coeffs=BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0,
                                             sigma1=0.5).coefficients())
gaps = {}
print(f"{'eps':>8} {'gap (p=2)':>14} {'stderr':>12}")
# X^0, the increments and Z do not depend on eps: each pair lends them to the next
pair = None
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    pair = clt_pair(affine, xi=1.0, eps=eps, grid=grid, n_particles=4_000, seed=6,
                    limit=pair)
    gap = clt_gap(pair, p=2)
    gaps[eps] = gap.value
    print(f"{eps:8.0e} {gap.value:14.6e} {gap.stderr:12.2e}")
reg = scaling_regression(gaps)
print(f"log-log slope: {reg.slope:.4f}  (expected 1.0)")

print("\n== the limit marginal is Gaussian ==")
pair = clt_pair(linear, xi=1.0, eps=1e-2, grid=TimeGrid(1.0, 100),
                n_particles=50_000, seed=8)
z = pair.z_lim.states[:, -1, 0]
zc = z - z.mean()
print("skewness        :", (zc**3).mean() / zc.std() ** 3)
print("excess kurtosis :", (zc**4).mean() / zc.std() ** 4 - 3.0)
