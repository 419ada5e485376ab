"""Strong small-noise convergence and its sqrt(eps) rate.

The pathwise distance between the noisy system and its deterministic limit
is measured over four decades of noise levels, on coupled drivers, and the
log-log slope is read off: one half.
"""

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    Model,
    TimeGrid,
    scaling_regression,
    strong_error_vs_eps,
)

grid = TimeGrid(horizon=1.0, n_steps=200)
unit = ConstantKernel(1.0)
model = Model(k1=unit, k2=unit,
              coeffs=BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients())

errors = strong_error_vs_eps(model, xi=1.0, eps_list=[1e-1, 1e-2, 1e-3, 1e-4],
                             grid=grid, n_particles=5_000, seed=21)

print(f"{'eps':>8} {'E sup |X^eps - X^0|':>22}")
for eps, err in sorted(errors.items()):
    print(f"{eps:8.0e} {err:22.6e}")

reg = scaling_regression(errors)
print(f"\nlog-log slope: {reg.slope:.4f}   (expected 0.5, r2 = {reg.r2:.6f})")
