"""Experiment orchestration: dispatch, artifacts, manifests, reproducibility.

Artifacts are written to a temporary sibling of the output directory and
promoted atomically on success, so no partial result set is ever visible.
Every run records a manifest plus the exact configuration text; re-running
from the manifest reproduces each numeric artifact byte for byte, at any
worker count, because all randomness is counter-based.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig, validate_config
from .errors import BudgetError, ConfigError
from .fluctuations import clt_gap, clt_pair
from .kernels import GridKernel, regularity_probe, resolvent
from .rates import Halfspace, RateProblem, ldp_rate, mdp_rate, minimize_rate_endpoint, tail_probability_probe
from .solvers import Model, ensemble_summary, simulate_particles, solve_deterministic_limit

ENV_WORKERS = "VOLTERRA_MV_WORKERS"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_kv(path, items):
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {_fmt(value) if not isinstance(value, str) else value}\n")


@dataclass(frozen=True)
class RunResult:
    out_dir: str
    artifacts: tuple
    manifest_path: str


def _budget_guard(cfg: ExperimentConfig):
    d = cfg.coeffs.d
    estimate = cfg.n_particles * cfg.grid.n_steps * d * 8 * 2
    if estimate > cfg.memory_budget:
        raise BudgetError(
            f"estimated state memory {estimate} bytes exceeds the budget "
            f"{cfg.memory_budget}; lower run.N or grid.n_steps or raise limits.memory_bytes"
        )


def _model(cfg: ExperimentConfig) -> Model:
    return Model(k1=cfg.k1, k2=cfg.k2, coeffs=cfg.coeffs)


def _load_target_csv(path, grid, d):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "t":
            raise ConfigError([f"rate.target_csv: first column must be t, got {header[0]!r}"])
        for row in reader:
            rows.append([float(v) for v in row])
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (grid.n_steps + 1, d + 1):
        raise ConfigError([
            f"rate.target_csv: expected {grid.n_steps + 1} rows and {d + 1} columns,"
            f" got {arr.shape[0]} rows and {arr.shape[1]} columns"
        ])
    if not np.allclose(arr[:, 0], grid.times, atol=1e-9):
        raise ConfigError(["rate.target_csv: time column does not match the grid"])
    return arr[:, 1:]


def _write_ensemble_csv(path, ensemble):
    # one % template per particle, with step and time as fixed text; the bytes
    # are those of csv.writer with _fmt cells (CRLF line ends, %.17g floats)
    n, steps, d = ensemble.states.shape
    times = ensemble.grid.times
    cells = ",%.17g" * d
    template = "".join(f"%d,{i},{_fmt(times[i])}{cells}\r\n" for i in range(steps))
    args = np.empty((steps, d + 1))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["particle", "step", "t"] + [f"x{k + 1}" for k in range(d)])
        for p in range(n):
            args[:, 0] = p
            args[:, 1:] = ensemble.states[p]
            fh.write(template % tuple(args.ravel().tolist()))


def _write_resolvent_csv(path, times, weights):
    # rows (t_i, t_j, weights[i, j]) for j < i; row i's template puts the
    # text of t_i before each of the tails ",t_j,%.17g\r\n", j < i
    cells = [_fmt(t) for t in times]
    tails = [""] + [f",{c},%.17g\r\n" for c in cells]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", "s", "value"])
        for i in range(1, len(cells)):
            fh.write(cells[i].join(tails[:i + 1]) % tuple(weights[i, :i].tolist()))


def _write_summary_csv(path, ensemble, p_list):
    summary = ensemble_summary(ensemble, p_list=p_list)
    d = ensemble.dim
    header = (
        ["t"] + [f"mean_x{k + 1}" for k in range(d)] + [f"var_x{k + 1}" for k in range(d)]
        + [f"moment_p{_fmt(p)}" for p in p_list]
    )
    rows = []
    for i, t in enumerate(summary["t"]):
        row = [t]
        row += list(summary["mean"][i])
        row += list(summary["var"][i])
        row += [summary[f"moment_p{p}"][i] for p in p_list]
        rows.append(row)
    _write_csv(path, header, rows)


def _clt_cell(config_text: str, eps: float) -> tuple:
    cfg = validate_config(config_text)
    pair = clt_pair(_model(cfg), cfg.xi, eps, cfg.grid, cfg.n_particles, cfg.seed)
    row = [eps]
    for p in cfg.p_list:
        gap = clt_gap(pair, p=p)
        row.extend([gap.value, gap.stderr])
    return tuple(row)


def _tail_cell(config_text: str, index: int, eps: float) -> tuple:
    cfg = validate_config(config_text)
    event = Halfspace(normal=cfg.event_normal, level=cfg.event_level)
    res = tail_probability_probe(
        _model(cfg), cfg.rate_mode, event, [eps], cfg.n_particles,
        cfg.seed, cfg.grid, xi=cfg.xi, h_beta=cfg.h_beta, kc=cfg.kc,
        with_reference=False, seed_indices=[index],
    )
    cell = res.cells[0]
    return (cell.eps, cell.h, cell.n_hits, cell.p_hat, cell.normalized_decay,
            cell.censored, cell.resolved)


def _run_into(cfg: ExperimentConfig, out_dir: str, workers: int) -> list:
    artifacts = []
    kind = cfg.kind
    model = _model(cfg)

    def art(name):
        path = os.path.join(out_dir, name)
        artifacts.append(name)
        return path

    if kind == "simulate":
        _budget_guard(cfg)
        ens = simulate_particles(cfg.k1, cfg.k2, cfg.coeffs, cfg.xi, cfg.eps_list[0],
                                 cfg.grid, cfg.n_particles, cfg.seed)
        if cfg.write_ensemble:
            _write_ensemble_csv(art("ensemble.csv"), ens)
        _write_summary_csv(art("summary.csv"), ens, cfg.p_list)
    elif kind == "limit":
        path = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
        _write_csv(
            art("path.csv"),
            ["step", "t"] + [f"x{k + 1}" for k in range(cfg.coeffs.d)],
            [[i, cfg.grid.times[i]] + list(path[i]) for i in range(cfg.grid.n_steps + 1)],
        )
    elif kind == "clt":
        _budget_guard(cfg)
        eps_sorted = sorted(cfg.eps_list)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_clt_cell, [cfg.raw_text] * len(eps_sorted), eps_sorted))
        else:
            rows = [_clt_cell(cfg.raw_text, eps) for eps in eps_sorted]
        header = ["eps"]
        for p in cfg.p_list:
            header.extend([f"gap_p{_fmt(p)}", f"stderr_p{_fmt(p)}"])
        _write_csv(art("clt.csv"), header, rows)
    elif kind in ("ldp-rate", "mdp-rate"):
        target = _load_target_csv(cfg.target_csv, cfg.grid, cfg.coeffs.d)
        x0 = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
        kc = cfg.kc or (cfg.k1 if cfg.rate_mode == "ldp" else cfg.k2)
        problem = RateProblem(
            mode=cfg.rate_mode, k1=cfg.k1, kc=kc, coeffs=cfg.coeffs, grid=cfg.grid,
            x0_path=x0, target=target, lam_reg=cfg.lam_reg,
        )
        sol = ldp_rate(problem) if cfg.rate_mode == "ldp" else mdp_rate(problem)
        _write_csv(
            art("control.csv"),
            ["t"] + [f"v{k + 1}" for k in range(cfg.coeffs.m)],
            [[cfg.grid.times[i]] + list(sol.v_star.values[i]) for i in range(cfg.grid.n_steps)],
        )
        _write_kv(art("summary.txt"), [
            ("rate", sol.rate), ("residual", sol.residual),
            ("attained", sol.attained), ("lambda_used", sol.lambda_used),
        ])
    elif kind == "rate-min":
        event = Halfspace(normal=cfg.event_normal, level=cfg.event_level)
        sol = minimize_rate_endpoint(model, cfg.rate_mode, event, cfg.grid,
                                     xi=cfg.xi, kc=cfg.kc)
        _write_csv(
            art("control.csv"),
            ["t"] + [f"v{k + 1}" for k in range(cfg.coeffs.m)],
            [[cfg.grid.times[i]] + list(sol.v_star.values[i]) for i in range(cfg.grid.n_steps)],
        )
        _write_kv(art("summary.txt"), [
            ("rate", sol.rate), ("residual", sol.residual), ("attained", sol.attained),
            ("terminal_value", sol.diagnostics.get("terminal_value", float("nan"))),
        ])
    elif kind == "tail-probe":
        _budget_guard(cfg)
        eps_sorted = sorted(cfg.eps_list)
        texts = [cfg.raw_text] * len(eps_sorted)
        # cells get independent substreams derived from (seed, index); the probe
        # itself derives them per call, so feed one eps per call with its index
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_tail_cell, texts, range(len(eps_sorted)), eps_sorted))
        else:
            rows = [_tail_cell(cfg.raw_text, i, eps) for i, eps in enumerate(eps_sorted)]
        event = Halfspace(normal=cfg.event_normal, level=cfg.event_level)
        reference = minimize_rate_endpoint(model, cfg.rate_mode, event, cfg.grid,
                                           xi=cfg.xi, kc=cfg.kc).rate
        _write_csv(
            art("tail.csv"),
            ["eps", "h", "n_hits", "p_hat", "normalized_decay", "censored", "resolved"],
            rows,
        )
        _write_kv(art("summary.txt"), [("rate_reference", reference), ("mode", cfg.rate_mode)])
    elif kind == "resolvent":
        gk = GridKernel.from_kernel(cfg.k1, cfg.grid)
        res = resolvent(gk, method=cfg.resolvent_method)
        _write_resolvent_csv(art("resolvent.csv"), cfg.grid.times, res.weights)
    elif kind == "kernel-probe":
        kern = {"kernel1": cfg.k1, "kernel2": cfg.k2, "kernelc": cfg.kc}[cfg.probe_kernel]
        if kern is None:
            raise ConfigError([f"probe.kernel: section {cfg.probe_kernel} is not defined"])
        est = regularity_probe(kern, cfg.probe_t, cfg.probe_h_list)
        _write_csv(art("probe.csv"), ["h", "D"],
                   list(zip(est.h_values, est.d_values)))
        _write_kv(art("summary.txt"), [
            ("gamma_hat", est.gamma_hat), ("slope", est.slope),
            ("intercept", est.intercept), ("r2", est.r2),
            ("max_log_residual", est.max_log_residual),
        ])
    else:
        raise ConfigError([f"experiment.kind: unhandled kind {kind!r}"])
    return artifacts


def _write_manifest(cfg: ExperimentConfig, out_dir: str) -> str:
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write(cfg.raw_text)
    manifest_path = os.path.join(out_dir, "manifest")
    _write_kv(manifest_path, [
        ("kind", cfg.kind),
        ("config_sha256", cfg.sha256),
        ("library_version", __version__),
        ("seed", cfg.seed),
        ("grid_T", cfg.grid.horizon),
        ("grid_n_steps", cfg.grid.n_steps),
    ])
    return manifest_path


def resolve_workers(cfg_workers: int, cli_workers: int | None) -> int:
    if cli_workers is not None:
        return max(1, cli_workers)
    env = os.environ.get(ENV_WORKERS)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError([f"{ENV_WORKERS} must be an integer, got {env!r}"])
    return max(1, cfg_workers)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   workers: int | None = None) -> RunResult:
    """Run one experiment; artifacts appear atomically in the output directory."""
    final_dir = os.path.abspath(out_dir or cfg.out_dir)
    n_workers = resolve_workers(cfg.workers, workers)
    if os.path.exists(final_dir) and os.listdir(final_dir):
        raise ConfigError([f"output.directory: {final_dir} already exists and is not empty"])
    parent = os.path.dirname(final_dir) or "."
    os.makedirs(parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=os.path.basename(final_dir) + ".partial.", dir=parent)
    try:
        artifacts = _run_into(cfg, tmp_dir, n_workers)
        manifest = _write_manifest(cfg, tmp_dir)
        artifacts = tuple(artifacts) + ("config.resolved", "manifest")
        if os.path.isdir(final_dir):
            os.rmdir(final_dir)
        os.replace(tmp_dir, final_dir)
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return RunResult(
        out_dir=final_dir,
        artifacts=artifacts,
        manifest_path=os.path.join(final_dir, "manifest"),
    )


def run_from_manifest(manifest_path: str, out_dir: str,
                      workers: int | None = None) -> RunResult:
    """Re-run the experiment recorded next to a manifest, bitwise-reproducibly."""
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    config_path = os.path.join(manifest_dir, "config.resolved")
    if not os.path.exists(config_path):
        raise ConfigError([f"manifest: {config_path} is missing"])
    with open(config_path) as fh:
        text = fh.read()
    recorded = {}
    with open(manifest_path) as fh:
        for line in fh:
            if "=" in line:
                key, _, value = line.partition("=")
                recorded[key.strip()] = value.strip()
    cfg = validate_config(text)
    if recorded.get("config_sha256") not in (None, cfg.sha256):
        raise ConfigError(["manifest: config.resolved does not match the recorded hash"])
    return run_experiment(cfg, out_dir=out_dir, workers=workers)
