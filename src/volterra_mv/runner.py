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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig, validate_config
from .errors import BudgetError, ConfigError
from .fluctuations import clt_gap, clt_pair
from .kernels import HISTORY_BLOCK, GridKernel, regularity_probe, resolvent
from .rates import Halfspace, RateProblem, ldp_rate, mdp_rate, minimize_rate_endpoint, tail_probability_probe
from .solvers import Model, ensemble_summary, simulate_particles, solve_deterministic_limit

ENV_WORKERS = "VOLTERRA_MV_WORKERS"
# rows of ensemble.csv and resolvent.csv formatted at a time
BLOCK_ROWS = 1 << 14


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


def _memory_estimate(cfg: ExperimentConfig) -> int:
    """Bytes of the particle arrays one run (or one clt cell) holds at once,
    and of the ensemble writer's block of rows."""
    d = cfg.coeffs.d
    n = cfg.grid.n_steps
    # per particle, in any march: the drift and noise histories on n nodes and
    # their two far-part blocks of HISTORY_BLOCK rows (d floats each), and the
    # n driver increments with their time-major block of HISTORY_BLOCK steps
    # (m floats each)
    march = (n + HISTORY_BLOCK) * (2 * d + cfg.coeffs.m)
    if cfg.kind == "clt":
        # and the marching states, with Z^eps and Z of the earlier pair that a
        # chained sweep keeps while the next pass runs, on the n+1 nodes;
        # clt_gap takes its sup in blocks of steps
        floats = (n + 1) * 3 * d + march
    else:
        # and the states on the n+1 nodes (a simulate run or a tail-probe cell)
        floats = (n + 1) * d + march
    estimate = cfg.n_particles * floats * 8
    if cfg.kind == "simulate" and cfg.write_ensemble:
        # while ensemble.csv is written: the states, the increments and one
        # block's text and formatter temporaries, about 130 bytes a row and
        # 195 a state cell (tracemalloc, d = 1..3)
        block = min(BLOCK_ROWS, cfg.n_particles * (n + 1)) * (130 + 195 * d)
        writing = cfg.n_particles * ((n + 1) * d + n * cfg.coeffs.m) * 8 + block
        estimate = max(estimate, writing)
    return estimate


def _budget_guard(cfg: ExperimentConfig, concurrent: int = 1):
    # concurrent: how many cells of a pool sweep are alive at once
    estimate = concurrent * _memory_estimate(cfg)
    if estimate > cfg.memory_budget:
        raise BudgetError(
            f"estimated state memory {estimate} bytes exceeds the budget "
            f"{cfg.memory_budget}; lower run.N or grid.n_steps or raise limits.memory_bytes"
        )


def _model(cfg: ExperimentConfig) -> Model:
    return Model(k1=cfg.k1, k2=cfg.k2, coeffs=cfg.coeffs)


def _load_target_csv(path, grid, d):
    try:
        with open(path, newline="") as fh:
            header, *lines = list(csv.reader(fh)) or [[]]
        rows = [[float(v) for v in row] for row in lines]
    except (OSError, ValueError) as exc:
        raise ConfigError([f"rate.target_csv: {exc}"]) from None
    if not header:
        raise ConfigError([f"rate.target_csv: {path} has no header line"])
    if header[0] != "t":
        raise ConfigError([f"rate.target_csv: first column must be t, got {header[0]!r}"])
    widths = sorted({len(row) for row in rows})
    if len(rows) != grid.n_steps + 1 or widths != [d + 1]:
        raise ConfigError([
            f"rate.target_csv: expected {grid.n_steps + 1} rows and {d + 1} columns,"
            f" got {len(rows)} rows and {'/'.join(map(str, widths)) or 0} columns"
        ])
    arr = np.asarray(rows, dtype=float)
    if not np.allclose(arr[:, 0], grid.times, atol=1e-9):
        raise ConfigError(["rate.target_csv: time column does not match the grid"])
    return arr[:, 1:]


def _write_ensemble_csv(path, ensemble):
    # blocks of rows (particle p, step i, t_i, the states of p at step i):
    # the texts of p and of "i,t_i" are gathered per row, the states are
    # formatted by textfmt; the bytes are those of csv.writer with _fmt
    # cells (CRLF line ends, %.17g floats).  textfmt is imported here, so
    # that only a run that writes such a file builds its digit tables.
    from . import textfmt

    n, steps, d = ensemble.states.shape
    times = ensemble.grid.times
    step_cells = textfmt.text_cells([f"{i},{_fmt(t)}" for i, t in enumerate(times)])
    states = ensemble.states.reshape(n * steps, d)
    header = ["particle", "step", "t"] + [f"x{k + 1}" for k in range(d)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, n * steps, BLOCK_ROWS):
            p, i = np.divmod(np.arange(lo, min(lo + BLOCK_ROWS, n * steps)), steps)
            particle_cells = textfmt.text_cells([str(k) for k in range(p[0], p[-1] + 1)])
            fh.write(textfmt.csv_rows(np.take(particle_cells, p - p[0], axis=0),
                                      np.take(step_cells, i, axis=0),
                                      textfmt.format_g17(states[lo:lo + p.size])))


def _write_resolvent_csv(path, times, weights):
    # rows (t_i, t_j, weights[i, j]) for j < i, in blocks of rows; row r
    # belongs to the i with starts[i] <= r < starts[i + 1]
    from . import textfmt

    time_cells = textfmt.text_cells([_fmt(t) for t in times])
    nodes = np.arange(len(times))
    starts = nodes * (nodes - 1) // 2
    n_rows = len(times) * (len(times) - 1) // 2
    with open(path, "wb") as fh:
        fh.write(b"t,s,value\r\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            r = np.arange(lo, min(lo + BLOCK_ROWS, n_rows))
            i = np.searchsorted(starts, r, side="right") - 1
            j = r - starts[i]
            fh.write(textfmt.csv_rows(np.take(time_cells, i, axis=0),
                                      np.take(time_cells, j, axis=0),
                                      textfmt.format_g17(weights[i, j])))


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


def _clt_rows(cfg: ExperimentConfig, eps_chunk) -> list:
    # X^0, the driver increments and Z do not depend on eps: each pair lends
    # them to the next, and a row's gaps are taken before the next pass
    model = _model(cfg)
    rows = []
    pair = None
    for eps in eps_chunk:
        pair = clt_pair(model, cfg.xi, eps, cfg.grid, cfg.n_particles, cfg.seed, limit=pair)
        row = [eps]
        for p in cfg.p_list:
            gap = clt_gap(pair, p=p)
            row.extend([gap.value, gap.stderr])
        rows.append(tuple(row))
    return rows


def _tail_row(cfg: ExperimentConfig, index: int, eps: float) -> tuple:
    event = Halfspace(normal=cfg.event_normal, level=cfg.event_level)
    res = tail_probability_probe(
        _model(cfg), cfg.rate_mode, event, [eps], cfg.n_particles,
        cfg.seed, cfg.grid, xi=cfg.xi, h_beta=cfg.h_beta, kc=cfg.kc,
        with_reference=False, seed_indices=[index],
    )
    cell = res.cells[0]
    return (cell.eps, cell.h, cell.n_hits, cell.p_hat, cell.normalized_decay,
            cell.censored, cell.resolved)


def _tail_rows(cfg: ExperimentConfig, indexed_eps) -> list:
    # cells get independent substreams derived from (seed, index); the probe
    # itself derives them per call, so feed one eps per call with its index
    return [_tail_row(cfg, index, eps) for index, eps in indexed_eps]


def _rows_from_text(rows_fn, config_text: str, chunk) -> list:
    return rows_fn(validate_config(config_text), chunk)


def _sweep(rows_fn, cfg: ExperimentConfig, cells: list, workers: int) -> list:
    """Rows of rows_fn over the cells, in order.

    A pool splits the cells into one contiguous chunk per worker.  Each
    worker rebuilds the config, and with it the kernels, from its text once
    and runs the same row function as a serial run, which calls it with the
    config it already holds, so one set of kernel objects and their cached
    grid weights serves every cell of a chunk.
    """
    n_chunks = min(workers, len(cells))
    if n_chunks <= 1:
        return rows_fn(cfg, cells)
    bounds = [len(cells) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_chunks) as pool:
        parts = pool.map(_rows_from_text, [rows_fn] * n_chunks,
                         [cfg.raw_text] * n_chunks, chunks)
        return [row for part in parts for row in part]


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
        eps_sorted = sorted(cfg.eps_list)
        _budget_guard(cfg, concurrent=min(workers, len(eps_sorted)))
        rows = _sweep(_clt_rows, cfg, eps_sorted, workers)
        header = ["eps"]
        for p in cfg.p_list:
            header.extend([f"gap_p{_fmt(p)}", f"stderr_p{_fmt(p)}"])
        _write_csv(art("clt.csv"), header, rows)
    elif kind in ("ldp-rate", "mdp-rate", "rate-min"):
        if kind == "rate-min":
            event = Halfspace(normal=cfg.event_normal, level=cfg.event_level)
            sol = minimize_rate_endpoint(model, cfg.rate_mode, event, cfg.grid,
                                         xi=cfg.xi, kc=cfg.kc)
            summary = [
                ("rate", sol.rate), ("residual", sol.residual), ("attained", sol.attained),
                ("terminal_value", sol.diagnostics.get("terminal_value", float("nan"))),
            ]
        else:
            target = _load_target_csv(cfg.target_csv, cfg.grid, cfg.coeffs.d)
            x0 = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
            kc = cfg.kc or (cfg.k1 if cfg.rate_mode == "ldp" else cfg.k2)
            try:
                problem = RateProblem(
                    mode=cfg.rate_mode, k1=cfg.k1, kc=kc, coeffs=cfg.coeffs, grid=cfg.grid,
                    x0_path=x0, target=target, lam_reg=cfg.lam_reg,
                )
            except ValueError as exc:
                # the file passed its format checks, so the target's start is off
                raise ConfigError([f"rate.target_csv: {exc}"]) from None
            sol = ldp_rate(problem) if cfg.rate_mode == "ldp" else mdp_rate(problem)
            summary = [
                ("rate", sol.rate), ("residual", sol.residual),
                ("attained", sol.attained), ("lambda_used", sol.lambda_used),
            ]
        _write_csv(
            art("control.csv"),
            ["t"] + [f"v{k + 1}" for k in range(cfg.coeffs.m)],
            [[cfg.grid.times[i]] + list(sol.v_star.values[i]) for i in range(cfg.grid.n_steps)],
        )
        _write_kv(art("summary.txt"), summary)
    elif kind == "tail-probe":
        _budget_guard(cfg, concurrent=min(workers, len(cfg.eps_list)))
        rows = _sweep(_tail_rows, cfg, list(enumerate(sorted(cfg.eps_list))), workers)
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
