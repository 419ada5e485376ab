"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with ``pytest -v -s``.

Criterion 9's tail-probe clause pins eps = 1e-2, where the event has
probability ~7.6e-24.  Crude Monte Carlo with 2e5 samples cannot resolve it
and is asserted to report the cell censored, which is all it promises.  The
normalized decay and the closed-form agreement are asserted on the
importance-sampled probe (minimizer-tilted tagged particles under the frozen
empirical law) at the same inputs.  Both estimators are also validated
against the Gaussian closed form in tests/test_rates.py.
"""

import contextlib
import csv
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from volterra_mv import (
    BuiltinLinearMeanField,
    ConstantKernel,
    ControlPath,
    FbmKernel,
    GridKernel,
    Halfspace,
    Model,
    PowerKernel,
    RateProblem,
    TimeGrid,
    clt_gap,
    clt_pair,
    gronwall_check,
    integrate_kernel,
    ldp_rate,
    mdp_rate,
    minimize_rate_endpoint,
    regularity_probe,
    resolvent,
    scaling_regression,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
    strong_error_vs_eps,
    tail_probability_probe,
)
from volterra_mv.config import validate_config
from volterra_mv.runner import run_experiment, run_from_manifest

UNIT = ConstantKernel(1.0)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {number:>2} [{label}]: FAIL ({exc})")
        raise
    print(f"ACCEPTANCE {number:>2} [{label}]: PASS")


def test_criterion_01_resolvent_oracle(series_resolvent):
    with criterion(1, "resolvent oracle"):
        grid = TimeGrid(1.0, 1000)
        start = time.monotonic()
        gk = GridKernel.from_kernel(UNIT, grid)
        direct = resolvent(gk)
        series = series_resolvent(gk, tol=1e-10)
        elapsed = time.monotonic() - start
        i, j = np.tril_indices(grid.n_steps + 1, k=-1)
        keep = j < grid.n_steps
        i, j = i[keep], j[keep]
        exact = np.exp(grid.times[i] - grid.times[j])
        max_rel = float((np.abs(direct.weights[i, j] - exact) / exact).max())
        agreement = float(np.abs(series - direct.weights).max())
        print(f"  max rel err {max_rel:.2e}, series-direct {agreement:.2e}, {elapsed:.2f}s")
        assert max_rel <= 0.02
        assert agreement <= 1e-8
        assert elapsed < 5.0


def test_criterion_02_gronwall_identity():
    with criterion(2, "Gronwall identity"):
        rng = np.random.default_rng(1234)
        grid = TimeGrid(1.0, 300)
        worst = 0.0
        for trial in range(50):
            if trial % 2 == 0:
                kern = ConstantKernel(float(rng.uniform(0.2, 2.0)))
            else:
                kern = PowerKernel(float(rng.uniform(0.15, 0.95)))
            g = np.abs(rng.standard_normal(301)) + rng.uniform(0.0, 1.0)
            rep = gronwall_check(GridKernel.from_kernel(kern, grid), g)
            assert rep.satisfied
            scale = float(np.abs(rep.bound).max())
            worst = max(worst, float(np.abs(rep.f - rep.bound).max()) / scale)
        print(f"  worst saturating mismatch {worst:.2e} (tolerance 0.02)")
        assert worst <= 0.02


def test_criterion_03_kernel_regularity():
    with criterion(3, "kernel regularity exponents"):
        h_list = np.geomspace(1e-3, 1e-2, 6)
        for hurst in (0.25, 0.5, 0.75):
            est = regularity_probe(PowerKernel(hurst), 0.5, h_list)
            print(f"  H = {hurst}: gamma_hat = {est.gamma_hat:.4f}")
            assert est.gamma_hat == pytest.approx(hurst, abs=0.02)


def test_criterion_04_fbm_variance():
    with criterion(4, "fractional kernel variance"):
        start = time.monotonic()
        grid = TimeGrid(1.0, 200)
        kern = FbmKernel(0.7)
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0).coefficients()
        ens = simulate_particles(UNIT, kern, coeffs, 0.0, 1.0, grid, 100_000, seed=4040)
        for t in (0.25, 0.5, 1.0):
            idx = grid.index_of(t)
            sample_var = float(ens.states[:, idx, 0].var())
            oracle = integrate_kernel(kern, t, 0.0, t, 2)
            print(f"  t = {t}: var {sample_var:.5f} vs oracle {oracle:.5f}")
            assert sample_var == pytest.approx(oracle, rel=0.05)
        elapsed = time.monotonic() - start
        print(f"  elapsed {elapsed:.1f}s")
        assert elapsed < 120.0


def test_criterion_05_sqrt_eps_strong_scaling():
    with criterion(5, "sqrt(eps) strong scaling"):
        grid = TimeGrid(1.0, 200)
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=1.0, b=0.5, sigma0=1.0).coefficients())
        errs = strong_error_vs_eps(model, 1.0, [1e-1, 1e-2, 1e-3, 1e-4],
                                   grid, 10_000, seed=505)
        reg = scaling_regression(errs)
        print(f"  slope {reg.slope:.4f} (r2 {reg.r2:.6f})")
        assert reg.slope == pytest.approx(0.5, abs=0.1)


def test_criterion_06_clt_gap_rate():
    # NOTE: with sigma constant and linear drift the coupled pair coincides
    # identically (the gap is floating-point noise), so the slope is measured
    # on the built-in model's affine-diffusion variant (sigma1 = 0.5), the
    # only configuration of the built-in family for which the asserted rate
    # is a well-defined quantity; scales and tolerances are unchanged.
    with criterion(6, "fluctuation gap rate"):
        grid = TimeGrid(1.0, 200)
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=1.0, b=0.5, sigma0=1.0, sigma1=0.5).coefficients())
        gaps2, gaps4 = {}, {}
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            pair = clt_pair(model, 1.0, eps, grid, 10_000, seed=606)
            gaps2[eps] = clt_gap(pair, p=2).value
            gaps4[eps] = clt_gap(pair, p=4).value
        reg = scaling_regression(gaps2)
        reg4 = scaling_regression(gaps4)
        print(f"  p=2 slope {reg.slope:.4f} (r2 {reg.r2:.6f}), p=4 slope {reg4.slope:.4f}")
        assert reg.slope == pytest.approx(1.0, abs=0.2)
        assert reg4.slope == pytest.approx(2.0, abs=0.4)

        control = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=0.0, b=0.0, sigma0=1.0).coefficients())
        pair0 = clt_pair(control, 0.0, 1e-2, grid, 2_000, seed=607)
        zero_gap = clt_gap(pair0, p=2).value
        print(f"  drift-free control gap {zero_gap:.2e}")
        assert zero_gap <= 1e-24


def test_criterion_07_mdp_rate_exactness():
    with criterion(7, "moderate-deviation rate exactness"):
        grid = TimeGrid(1.0, 1000)
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0).coefficients()
        x0 = np.zeros((grid.n_steps + 1, 1))
        ramp = grid.times[:, None]
        base = mdp_rate(RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=coeffs,
                                    grid=grid, x0_path=x0, target=ramp))
        print(f"  rate {base.rate!r} (target 0.5)")
        assert abs(base.rate - 0.5) <= 1e-8
        for c in (2.0, 3.0):
            scaled = mdp_rate(RateProblem(mode="mdp", k1=UNIT, kc=UNIT, coeffs=coeffs,
                                          grid=grid, x0_path=x0, target=c * ramp))
            assert abs(scaled.rate - c * c * base.rate) <= 1e-10


def test_criterion_08_ldp_round_trip():
    with criterion(8, "small-noise rate round trip"):
        grid = TimeGrid(1.0, 200)
        coeffs = BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients()
        x0 = solve_deterministic_limit(UNIT, coeffs, 1.0, grid)
        rng = np.random.default_rng(808)
        worst_rate, worst_residual = 0.0, 0.0
        for _ in range(20):
            v = ControlPath(grid=grid, values=rng.normal(size=(grid.n_steps, 1)))
            target = solve_controlled_deterministic(UNIT, UNIT, coeffs, 1.0, v, x0,
                                                    "ldp", grid)
            sol = ldp_rate(RateProblem(mode="ldp", k1=UNIT, kc=UNIT, coeffs=coeffs,
                                       grid=grid, x0_path=x0, target=target))
            assert sol.rate <= v.energy + 1e-9
            worst_rate = max(worst_rate, abs(sol.rate - v.energy))
            worst_residual = max(worst_residual, sol.residual)
        print(f"  worst |rate - energy| {worst_rate:.2e}, worst residual {worst_residual:.2e}")
        assert worst_rate <= 1e-6
        assert worst_residual <= 1e-8


def test_criterion_09_gaussian_tail_minimizer():
    with criterion(9, "Gaussian tail: rate minimizer"):
        grid = TimeGrid(1.0, 200)
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=0.0, b=0.0, sigma0=1.0).coefficients())
        sol = minimize_rate_endpoint(model, "ldp", Halfspace([1.0], 1.0), grid, xi=0.0)
        print(f"  minimizer rate {sol.rate!r} (target 0.5)")
        assert abs(sol.rate - 0.5) <= 1e-6


def test_criterion_09_gaussian_tail_probe_at_pinned_eps():
    with criterion(9, "Gaussian tail: probes at eps = 1e-2"):
        grid = TimeGrid(1.0, 200)
        model = Model(k1=UNIT, k2=UNIT, coeffs=BuiltinLinearMeanField(
            a=0.0, b=0.0, sigma0=1.0).coefficients())
        exact = norm.sf(1.0 / np.sqrt(1e-2 * 1.0))
        closed_form = -1e-2 * np.log(exact)
        print(f"  closed-form -eps log P = {closed_form:.4f} (P = {exact:.2e})")
        args = (model, "ldp", Halfspace([1.0], 1.0), [1e-2], 200_000, 909, grid)
        # crude sampling cannot resolve P ~ 7.6e-24 with 2e5 samples and
        # promises only a censored cell
        crude = tail_probability_probe(*args, xi=0.0, with_reference=False).cells[0]
        print(f"  crude MC: {crude.n_hits} hits, censored = {crude.censored}")
        assert crude.censored
        assert crude.n_hits == 0 and crude.p_hat is None
        cell = tail_probability_probe(*args, xi=0.0, with_reference=False,
                                      method="importance").cells[0]
        se = cell.rel_stderr * cell.p_hat
        print(f"  importance: {cell.n_hits} tilted hits, p_hat = {cell.p_hat:.4e} "
              f"+- {se:.2e}, -eps log p_hat = {cell.normalized_decay:.5f}")
        assert not cell.censored
        assert cell.normalized_decay == pytest.approx(0.5, rel=0.15)
        assert abs(cell.p_hat - exact) <= 4 * se


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "manifest and worker reproducibility"):
        text = """
[experiment]
kind = tail-probe

[model]
name = linear_mean_field
A = 0.5
B = 0.25
sigma0 = 1.0
xi = 0.0

[kernel1]
family = constant
c = 1.0

[kernel2]
family = constant
c = 1.0

[grid]
T = 1.0
n_steps = 50

[run]
N = 500
seed = 99
eps_list = [0.25, 0.5, 1.0]

[rate]
mode = ldp
event_normal = [1.0]
event_level = 0.5
"""
        first = run_experiment(validate_config(text), out_dir=tmp_path / "a", workers=1)
        again = run_from_manifest(first.manifest_path, out_dir=tmp_path / "b", workers=1)
        many = run_from_manifest(first.manifest_path, out_dir=tmp_path / "c", workers=4)

        def read_all(run):
            out = {}
            for name in run.artifacts:
                if name.endswith(".csv"):
                    with open(os.path.join(run.out_dir, name), "rb") as fh:
                        out[name] = fh.read()
            return out

        base = read_all(first)
        assert base == read_all(again)
        assert base == read_all(many)
        print(f"  {len(base)} CSV artifacts identical across re-runs and worker counts")

        sim_text = text.replace("kind = tail-probe", "kind = simulate")
        sim1 = run_experiment(validate_config(sim_text), out_dir=tmp_path / "s1")
        sim2 = run_from_manifest(sim1.manifest_path, out_dir=tmp_path / "s2")
        for name in ("ensemble.csv", "summary.csv"):
            with open(os.path.join(sim1.out_dir, name), "rb") as f1, open(
                os.path.join(sim2.out_dir, name), "rb"
            ) as f2:
                assert f1.read() == f2.read()
