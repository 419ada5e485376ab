"""Kernels, convolution, resolvents and the Volterra Gronwall bound.

Walks through the kernel families, checks the resolvent of a constant kernel
against its exponential closed form, and saturates the Gronwall inequality.
"""

import numpy as np

from volterra_mv import (
    ConstantKernel,
    FbmKernel,
    GridKernel,
    PowerKernel,
    TimeGrid,
    convolve,
    eval_kernel,
    gronwall_check,
    regularity_probe,
    resolvent,
)

grid = TimeGrid(horizon=1.0, n_steps=500)

print("== point evaluations ==")
print("constant(3.5)(1, 0.2)      =", eval_kernel(ConstantKernel(3.5), 1.0, 0.2))
print("power(0.25)(1, 0.99)       =", eval_kernel(PowerKernel(0.25), 1.0, 0.99))
print("fbm(0.5)(1, 0.3)           =", eval_kernel(FbmKernel(0.5), 1.0, 0.3),
      " (the H = 1/2 kernel is identically 1)")
print("fbm(0.7)(1, 0.3)           =", eval_kernel(FbmKernel(0.7), 1.0, 0.3))

print("\n== convolving two unit kernels gives (t - s) up to O(dt) ==")
g1 = GridKernel.from_kernel(ConstantKernel(1.0), grid)
conv = convolve(g1, g1)
for (i, j) in ((100, 0), (400, 150)):
    t, s = grid.times[i], grid.times[j]
    print(f"(K*K)({t:.2f}, {s:.2f}) = {conv.weights[i, j]:.4f}   expected {t - s:.4f}")

print("\n== resolvent of the constant kernel c: R(t, s) = c e^{c (t-s)} ==")
for c in (1.0, 2.0):
    gk = GridKernel.from_kernel(ConstantKernel(c), grid)
    r = resolvent(gk)
    i, j = grid.n_steps, 0
    exact = c * np.exp(c * (grid.times[i] - grid.times[j]))
    print(f"c = {c}: resolvent {r.weights[i, j]:.5f}, exact {exact:.5f}")

print("\n== Gronwall bound, saturated by construction ==")
gk = GridKernel.from_kernel(ConstantKernel(1.0), grid)
report = gronwall_check(gk, np.ones(grid.n_steps + 1))
print("f(T)     =", report.f[-1], " (e =", np.e, ")")
print("bound(T) =", report.bound[-1])
print("satisfied:", report.satisfied)

print("\n== regularity probe recovers the kernel exponent ==")
for hurst in (0.25, 0.5, 0.75):
    est = regularity_probe(PowerKernel(hurst), 0.5, np.geomspace(1e-3, 1e-2, 6))
    print(f"power({hurst}): gamma_hat = {est.gamma_hat:.4f}  (r2 = {est.r2:.6f})")
