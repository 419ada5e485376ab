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
from .fluctuations import _bootstrap_rows, clt_gap, clt_pair
from .kernels import (HISTORY_BLOCK, HISTORY_BLOCKED_WIDTH, GridKernel, _cell_averages_scratch,
                      _set_blas_threads, regularity_probe, resolvent)
from .rates import (Halfspace, RateProblem, _control_kernel, ldp_rate, mdp_rate,
                    minimize_rate_endpoint, tail_probability_probe)
from .rng import scratch_bytes as _draw_scratch_bytes
from .solvers import Model, ensemble_summary, simulate_particles, solve_deterministic_limit

ENV_WORKERS = "VOLTERRA_MV_WORKERS"
# rows of resolvent.csv formatted at a time; ensemble.csv takes as many
# whole particles as fit, and at least one
BLOCK_ROWS = 1 << 14
# the text and formatter temporaries of one resolvent.csv row (tracemalloc)
_RESOLVENT_ROW_BYTES = 300
# rows of path.csv formatted at a time, and the text and formatter
# temporaries of one of its cells (tracemalloc, d = 1..3): a block holds
# about as much as a march of one particle over 2000 steps
PATH_BLOCK_ROWS = 1 << 7
_PATH_CELL_BYTES = 150


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    # no header or _fmt cell needs quoting, so these are csv.writer's bytes
    # without its 128 KiB record buffer
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\r\n")


def _write_kv(path, items):
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {_fmt(value) if not isinstance(value, str) else value}\n")


@dataclass(frozen=True)
class RunResult:
    out_dir: str
    artifacts: tuple
    manifest_path: str


# arrays of its input's size that a kernel family's evaluator holds while the
# cells of its weights are averaged (tracemalloc, n = 50..1600): about 14 in
# TabulatedKernel.__call__, and in FbmKernel's correction its series scratch
# (four float columns, a mask and two index columns) and about 5 more
_BUILD_TEMPORARIES = {"tabulated": 14, "fbm": 12}


def _weight_kernels(cfg: ExperimentConfig) -> list:
    """The kernels a run builds grid weights for, each with True when it
    builds the dense (n+1) x n matrix, which the rate functionals and the
    resolvent index.  A march reads a stationary kernel's n lags and any
    other kernel's packed triangle, which its dense matrix is unpacked from."""
    kind = cfg.kind
    if kind == "kernel-probe":
        return []
    if kind == "resolvent":
        return [(cfg.k1, True)]
    if kind in ("limit", "simulate", "clt"):
        marched = (cfg.k1,) if kind == "limit" else (cfg.k1, cfg.k2)
        return [(k, False) for k in marched]
    # a rate's drift kernel and its control kernel, if that is another one,
    # and the noise kernel of a tail probe's particles, if neither
    kc = _control_kernel(cfg.k1, cfg.k2, cfg.rate_mode, cfg.kc)
    out = [(cfg.k1, True)] + ([(kc, True)] if kc is not cfg.k1 else [])
    if kind == "tail-probe" and all(cfg.k2 is not k for k, _ in out):
        out.append((cfg.k2, False))
    return out


def _memory_estimate(cfg: ExperimentConfig) -> int:
    """Bytes one run (or one cell of a pool sweep) holds at its peak: the grid
    weights of its kernels and the arrays of its kind."""
    d, m = cfg.coeffs.d, cfg.coeffs.m
    n = cfg.grid.n_steps
    big_n = cfg.n_particles
    built = _weight_kernels(cfg)
    # each kernel's n lags or n(n+1)/2 packed floats; in a wide march of N
    # particles, the window of HISTORY_BLOCK rows that its History copies far
    # blocks of them into; and the dense matrix of a kernel that is indexed
    wide = cfg.kind in ("simulate", "clt", "tail-probe") and big_n * d >= HISTORY_BLOCKED_WIDTH
    weights = sum((n if k.stationary else n * (n + 1) // 2) + HISTORY_BLOCK * n * wide
                  + (n + 1) * n * dense for k, dense in built)
    # and the scratch of the cell quadrature that builds a kernel that is not
    # stationary
    build = max((_cell_averages_scratch(n, _BUILD_TEMPORARIES[k.family])
                 for k, _ in built if not k.stationary), default=0)

    def march(nodes):
        # per particle, in a particle or linear march: the states on the nodes
        # it keeps, the drift and noise histories on n nodes with one scratch
        # row each (d floats each), and one time-major block of HISTORY_BLOCK
        # steps of increments (m floats)
        return nodes * d + 2 * (n + 1) * d + HISTORY_BLOCK * m

    # the scratch that a march which draws its own increments lends each
    # block of HISTORY_BLOCK steps of its draws
    draws = _draw_scratch_bytes(big_n, HISTORY_BLOCK, m) // 8
    kind = cfg.kind
    if kind == "simulate":
        floats = big_n * march(n + 1) + draws
    elif kind == "clt":
        # and the increments, drawn once before the first march, beside the
        # scratch of their draw, which outweighs a short march of few
        # particles: the Z march keeps its states, and each particle pass
        # beside Z folds its sup and keeps no path, which comes to the same.
        # The bootstrap runs once those are freed: a block of resample
        # indices and the values they pick, at most about 512 KB, which is
        # the peak of small runs
        floats = max(big_n * (n * m + march(n + 1)),
                     big_n * n * m + _draw_scratch_bytes(big_n, n, m) // 8,
                     2 * _bootstrap_rows(big_n) * big_n)
    elif kind == "tail-probe":
        # a crude cell keeps no path: the march holds its current state slab
        floats = big_n * march(1) + draws
    elif kind in ("ldp-rate", "mdp-rate"):
        # the dense (n d) x (n m) control matrix and its scaled copy, or with
        # a ridge the (n m)^2 normal matrix, the scaled identity and their sum
        c = n * d * n * m
        floats = c + (3 * (n * m) ** 2 if cfg.lam_reg > 0.0 else c)
    elif kind == "resolvent":
        # the resolvent's rows, the history of its forward substitution, and
        # the check of its zeros
        floats = 2 * (n + 1) * n
    elif kind == "limit":
        # the march of one particle, which keeps its path
        floats = march(n + 1)
    else:
        # rate-min and kernel-probe: one-particle paths and probes
        floats = 0
    estimate = (weights + floats) * 8
    if kind == "simulate" and cfg.write_ensemble:
        # while ensemble.csv is written: the states and one block of whole
        # particles, at least one, with its table, text and formatter
        # temporaries: about 30 bytes a row and 162 a state cell
        # (tracemalloc, d = 1..3)
        rows = max(1, min(big_n, BLOCK_ROWS // (n + 1))) * (n + 1)
        estimate = max(estimate, (weights + big_n * (n + 1) * d) * 8 + rows * (30 + 162 * d))
    if kind == "resolvent":
        # and one block of resolvent.csv rows
        estimate += min(BLOCK_ROWS, (n + 1) * n // 2) * _RESOLVENT_ROW_BYTES
    if kind == "limit":
        # and one block of path.csv rows
        estimate += min(PATH_BLOCK_ROWS, n + 1) * (2 + d) * _PATH_CELL_BYTES
    # a weight build is its own phase: it comes before the larger arrays of
    # its run, so its scratch is counted beside the weights alone
    return max(estimate, weights * 8 + build)


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
    # rows (particle p, step i, t_i, the states of p at step i) in blocks of
    # whole particles, at least one, laid out in one table: the "i,t_i"
    # cells go in once, and each block writes over them its particle cells
    # and its states, formatted in place by textfmt.  The bytes are those
    # of csv.writer with _fmt cells (CRLF line ends, %.17g floats).  textfmt
    # is imported here, so that only a run that writes such a file builds
    # its digit tables.
    from . import textfmt

    n, steps, d = ensemble.states.shape
    per_block = max(1, min(n, BLOCK_ROWS // steps))
    step_cells = textfmt.text_cells([f"{i},{_fmt(t)}" for i, t in enumerate(ensemble.grid.times)])
    p_width = len(str(n - 1))
    table, (particle, step, value) = textfmt.row_table(
        (per_block, steps), [(1, p_width), (1, step_cells.shape[1]), (d, textfmt.WIDTH)])
    step[...] = step_cells[:, None, :]
    header = ["particle", "step", "t"] + [f"x{k + 1}" for k in range(d)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, n, per_block):
            k = min(per_block, n - lo)
            cells = textfmt.text_cells([str(p) for p in range(lo, lo + k)], p_width)
            particle[:k] = cells[:, None, None, :]
            textfmt.format_g17(ensemble.states[lo:lo + k], out=value[:k])
            fh.write(textfmt.csv_text(table[:k]))


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
    # every cell is a float, so textfmt formats the whole table at once, with
    # the bytes of csv.writer with _fmt cells
    from . import textfmt

    summary = ensemble_summary(ensemble, p_list=p_list)
    d = ensemble.dim
    header = (
        ["t"] + [f"mean_x{k + 1}" for k in range(d)] + [f"var_x{k + 1}" for k in range(d)]
        + [f"moment_p{_fmt(p)}" for p in p_list]
    )
    table = np.column_stack([summary["t"], summary["mean"], summary["var"]]
                            + [summary[f"moment_p{p}"] for p in p_list])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.write(textfmt.csv_rows(textfmt.format_g17(table)))


def _write_path_csv(path, times, states):
    # rows (i, t_i, the state at t_i), formatted by textfmt as summary.csv is,
    # in blocks of rows: the %.17g text of the float i is the decimal i, so
    # these are the bytes of csv.writer with _fmt cells
    from . import textfmt

    header = ["step", "t"] + [f"x{k + 1}" for k in range(states.shape[1])]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(times), PATH_BLOCK_ROWS):
            hi = min(lo + PATH_BLOCK_ROWS, len(times))
            table = np.column_stack([np.arange(lo, hi, dtype=float), times[lo:hi], states[lo:hi]])
            fh.write(textfmt.csv_rows(textfmt.format_g17(table)))


def _clt_rows(cfg: ExperimentConfig, eps_chunk) -> list:
    # X^0, the driver increments, Z and the workspace of history buffers do
    # not depend on eps: each pair lends them to the next.  A pair keeps no
    # Z^eps path, and the sweep keeps only its folded sup.  The bootstrap runs
    # after the last pair, and with it those arrays, is gone, so its
    # temporaries and numpy.random never sit beside them
    model = _model(cfg)
    sups = []
    pair = None
    for eps in eps_chunk:
        pair = clt_pair(model, cfg.xi, eps, cfg.grid, cfg.n_particles, cfg.seed, limit=pair)
        sups.append(pair.sup_gap)
    del pair
    rows = []
    for eps, sup in zip(eps_chunk, sups):
        row = [eps]
        for p in cfg.p_list:
            gap = clt_gap(sup, p=p)
            row.extend([gap.value, gap.stderr])
        rows.append(tuple(row))
    return rows


def _tail_rows(cfg: ExperimentConfig, indexed_eps) -> list:
    # cells get independent substreams derived from (seed, index): one probe
    # call takes the chunk's eps, which the sweep sorted, with their indices
    indices, eps = zip(*indexed_eps)
    res = tail_probability_probe(
        _model(cfg), cfg.rate_mode, Halfspace(normal=cfg.event_normal, level=cfg.event_level),
        eps, cfg.n_particles, cfg.seed, cfg.grid, xi=cfg.xi, h_beta=cfg.h_beta, kc=cfg.kc,
        with_reference=False, seed_indices=indices,
    )
    return [(cell.eps, cell.h, cell.n_hits, cell.p_hat, cell.normalized_decay,
             cell.censored, cell.resolved) for cell in res.cells]


def _rows_from_text(rows_fn, config_text: str, chunk) -> list:
    return rows_fn(validate_config(config_text), chunk)


def _sweep(rows_fn, cfg: ExperimentConfig, cells: list, workers: int) -> list:
    """Rows of rows_fn over the cells, in order.

    A pool splits the cells into one contiguous chunk per worker.  Each
    worker rebuilds the config, and with it the kernels, from its text once
    and runs the same row function as a serial run, which calls it with the
    config it already holds, so one set of kernel objects and their cached
    grid weights serves every cell of a chunk.  Each worker runs one BLAS
    thread, since the workers already share the cores.
    """
    n_chunks = min(workers, len(cells))
    if n_chunks <= 1:
        return rows_fn(cfg, cells)
    bounds = [len(cells) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_chunks, initializer=_set_blas_threads,
                             initargs=(1,)) as pool:
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

    # the cells of a clt or tail-probe sweep run at once, one per worker
    cells = len(cfg.eps_list) if kind in ("clt", "tail-probe") else 1
    _budget_guard(cfg, concurrent=min(workers, cells))
    if kind == "simulate":
        ens = simulate_particles(cfg.k1, cfg.k2, cfg.coeffs, cfg.xi, cfg.eps_list[0],
                                 cfg.grid, cfg.n_particles, cfg.seed)
        if cfg.write_ensemble:
            _write_ensemble_csv(art("ensemble.csv"), ens)
        _write_summary_csv(art("summary.csv"), ens, cfg.p_list)
    elif kind == "limit":
        path = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
        _write_path_csv(art("path.csv"), cfg.grid.times, path)
    elif kind == "clt":
        eps_sorted = sorted(cfg.eps_list)
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
            kc = _control_kernel(cfg.k1, cfg.k2, cfg.rate_mode, cfg.kc)
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
        res = resolvent(gk)
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
    """The call's worker count, else the environment's, else the config's
    (validated already); a count below 1 is refused."""
    source, count, env = "workers", cli_workers, os.environ.get(ENV_WORKERS)
    if count is None and env is not None:
        try:
            source, count = ENV_WORKERS, int(env)
        except ValueError:
            raise ConfigError([f"{ENV_WORKERS} must be an integer, got {env!r}"])
    if count is not None and count < 1:
        raise ConfigError([f"{source} must be at least 1, got {count}"])
    return cfg_workers if count is None else count


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
