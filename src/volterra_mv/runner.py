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
from .floattext import float_text
from .fluctuations import clt_gap, clt_pair, clt_sweep_bytes
from .kernels import (GridKernel, _set_blas_threads, march_bytes, regularity_probe, resolvent,
                      resolvent_bytes)
from .rates import (Halfspace, RateProblem, _control_kernel, crude_cell_bytes, ldp_rate,
                    mdp_rate, minimize_rate_endpoint, minimizer_bytes, solve_bytes,
                    tail_probability_probe)
from .solvers import (Model, ensemble_summary, pass_bytes, simulate_particles,
                      solve_deterministic_limit)

ENV_WORKERS = "VOLTERRA_MV_WORKERS"
# rows of resolvent.csv formatted at a time; ensemble.csv takes as many
# whole particles as fit, and at least one
BLOCK_ROWS = 1 << 14
# the text and formatter temporaries of one resolvent.csv row (tracemalloc)
_RESOLVENT_ROW_BYTES = 285
# rows of path.csv formatted at a time, and the text and formatter
# temporaries of one of its cells (tracemalloc, d = 1..3): a block holds
# about as much as a march of one particle over 2000 steps
PATH_BLOCK_ROWS = 1 << 7
_PATH_CELL_BYTES = 185
# an open artifact file: its 4 KiB buffer, the block size of common file
# systems, and its objects (tracemalloc)
_OPEN_FILE_BYTES = 4768


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return float_text(x)


def _write_csv(path, header, rows):
    # no header or _fmt cell needs quoting, so these are csv.writer's bytes
    # without its 128 KiB record buffer; a binary file holds its 4 KiB
    # buffer alone, where a text file also keeps its rows' strings until
    # they make 8 KiB of text: writing a 300-row control.csv peaked at 35 KB
    # traced, against 6 KB
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for row in rows:
            fh.write((",".join(_fmt(v) for v in row) + "\r\n").encode())


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
    """Bytes one run (or one cell of a pool sweep) holds at its peak: the grid
    weights of its kernels and the arrays of its kind."""
    n = cfg.grid.n_steps
    kind = _KINDS[cfg.kind]
    # the kernels it builds weights for, each once, as it is first named: a
    # rate's control kernel is its noise kernel unless [kernelc] is given
    control = _control_kernel(cfg.k2, cfg.kc)
    built = {}
    for name, marched, indexed in kind.weights:
        k = control if name == "control" else getattr(cfg, name)
        built.setdefault(id(k), (k, marched, indexed))
    # the march weights of each kernel a march reads, the dense matrix of one
    # that is indexed, and the scratch of their build, its own phase: it
    # comes before the larger arrays of its run, so it is counted beside the
    # weights alone.  The march form of a kernel that no march reads is held
    # only in that phase, while its matrix is built from it
    weights = build = 0
    for k, marched, indexed in built.values():
        form, scratch = march_bytes(k, n)
        weights += form * marched + 8 * (n + 1) * n * indexed
        build = max(build, scratch + form * (not marched))
    return weights + max(kind.memory(cfg), build)


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
    # of csv.writer with _fmt cells (CRLF line ends, shortest round-trip
    # floats).  textfmt is imported here, so that only a run that writes
    # such a file builds its digit tables.
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
            textfmt.format_shortest(ensemble.states[lo:lo + k], out=value[:k])
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
                                      textfmt.format_shortest(weights[i, j])))


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
        fh.write(textfmt.csv_rows(textfmt.format_shortest(table)))


def _write_path_csv(path, times, states):
    # rows (i, t_i, the state at t_i), formatted by textfmt as summary.csv is,
    # in blocks of rows: the text of the float i is the decimal i, so
    # these are the bytes of csv.writer with _fmt cells
    from . import textfmt

    header = ["step", "t"] + [f"x{k + 1}" for k in range(states.shape[1])]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(times), PATH_BLOCK_ROWS):
            hi = min(lo + PATH_BLOCK_ROWS, len(times))
            table = np.column_stack([np.arange(lo, hi, dtype=float), times[lo:hi], states[lo:hi]])
            fh.write(textfmt.csv_rows(textfmt.format_shortest(table)))


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
        gaps = [clt_gap(sup, p=p) for p in cfg.p_list]
        rows.append((eps, *(x for gap in gaps for x in (gap.value, gap.stderr))))
    return rows


_TAIL_COLUMNS = ("eps", "h", "n_hits", "p_hat", "normalized_decay", "censored", "resolved",
                 "rel_stderr", "ess")


def _tail_rows(cfg: ExperimentConfig, indexed_eps) -> list:
    # cells get independent substreams derived from (seed, index): one probe
    # call takes the chunk's eps, which the sweep sorted, with their indices
    indices, eps = zip(*indexed_eps)
    res = tail_probability_probe(
        _model(cfg), cfg.rate_mode, Halfspace(normal=cfg.event_normal, level=cfg.event_level),
        eps, cfg.n_particles, cfg.seed, cfg.grid, xi=cfg.xi, h_beta=cfg.h_beta, kc=cfg.kc,
        with_reference=False, seed_indices=indices,
    )
    return [tuple(getattr(cell, col) for col in _TAIL_COLUMNS) for cell in res.cells]


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


def _sizes(cfg: ExperimentConfig) -> tuple:
    # (N, n, d, m), the order of the stated sizes of a run's arrays
    return cfg.n_particles, cfg.grid.n_steps, cfg.coeffs.d, cfg.coeffs.m


def _run_simulate(cfg: ExperimentConfig, art, workers: int):
    ens = simulate_particles(cfg.k1, cfg.k2, cfg.coeffs, cfg.xi, cfg.eps_list[0],
                             cfg.grid, cfg.n_particles, cfg.seed)
    if cfg.write_ensemble:
        _write_ensemble_csv(art("ensemble.csv"), ens)
    _write_summary_csv(art("summary.csv"), ens, cfg.p_list)


def _simulate_bytes(cfg: ExperimentConfig) -> int:
    # the march of N particles, which keeps their paths, or while
    # ensemble.csv is written the states and one block of whole particles,
    # at least one, with its table, text and formatter temporaries: about 32
    # bytes a row and 167 a state cell (tracemalloc, d = 1..3)
    big_n, n, d, m = _sizes(cfg)
    rows = max(1, min(big_n, BLOCK_ROWS // (n + 1))) * (n + 1)
    writing = 8 * big_n * (n + 1) * d + rows * (32 + 167 * d) if cfg.write_ensemble else 0
    return max(pass_bytes(big_n, n, d, m, n + 1, draws=True), writing)


def _run_limit(cfg: ExperimentConfig, art, workers: int):
    path = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
    _write_path_csv(art("path.csv"), cfg.grid.times, path)


def _limit_bytes(cfg: ExperimentConfig) -> int:
    # the march of one particle, which keeps its path, the open path.csv and
    # one block of its rows
    _, n, d, m = _sizes(cfg)
    return (pass_bytes(1, n, d, m, n + 1) + _OPEN_FILE_BYTES
            + min(PATH_BLOCK_ROWS, n + 1) * (2 + d) * _PATH_CELL_BYTES)


def _run_clt(cfg: ExperimentConfig, art, workers: int):
    header = ["eps"] + [f"{col}_p{_fmt(p)}" for p in cfg.p_list for col in ("gap", "stderr")]
    _write_csv(art("clt.csv"), header, _sweep(_clt_rows, cfg, sorted(cfg.eps_list), workers))


def _control_bytes(cfg: ExperimentConfig) -> int:
    # a rate's last phase, after its solve or minimizer: its control and the
    # open control.csv, which is written row by row
    return 8 * cfg.grid.n_steps * cfg.coeffs.m + _OPEN_FILE_BYTES


def _write_control(cfg: ExperimentConfig, art, sol, last):
    # a rate's control.csv and summary.txt, whose last line is its own
    _write_csv(art("control.csv"), ["t"] + [f"v{k + 1}" for k in range(cfg.coeffs.m)],
               ([t, *v] for t, v in zip(cfg.grid.times, sol.v_star.values)))
    _write_kv(art("summary.txt"), [("rate", sol.rate), ("residual", sol.residual),
                                   ("attained", sol.attained), last])


def _run_rate(cfg: ExperimentConfig, art, workers: int):
    target = _load_target_csv(cfg.target_csv, cfg.grid, cfg.coeffs.d)
    x0 = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
    kc = _control_kernel(cfg.k2, cfg.kc)
    try:
        problem = RateProblem(mode=cfg.rate_mode, k1=cfg.k1, kc=kc, coeffs=cfg.coeffs,
                              grid=cfg.grid, x0_path=x0, target=target, lam_reg=cfg.lam_reg)
    except ValueError as exc:
        # the file passed its format checks, so the target's start is off
        raise ConfigError([f"rate.target_csv: {exc}"]) from None
    sol = ldp_rate(problem) if cfg.rate_mode == "ldp" else mdp_rate(problem)
    _write_control(cfg, art, sol, ("lambda_used", sol.lambda_used))


def _rate_bytes(cfg: ExperimentConfig) -> int:
    return max(solve_bytes(*_sizes(cfg)[1:], ridge=cfg.lam_reg > 0.0), _control_bytes(cfg))


def _rate_min(cfg: ExperimentConfig):
    event = Halfspace(normal=cfg.event_normal, level=cfg.event_level)
    return minimize_rate_endpoint(_model(cfg), cfg.rate_mode, event, cfg.grid, xi=cfg.xi, kc=cfg.kc)


def _run_rate_min(cfg: ExperimentConfig, art, workers: int):
    sol = _rate_min(cfg)
    terminal = sol.diagnostics.get("terminal_value", float("nan"))
    _write_control(cfg, art, sol, ("terminal_value", terminal))


def _rate_min_bytes(cfg: ExperimentConfig) -> int:
    return max(minimizer_bytes(*_sizes(cfg)[1:]), _control_bytes(cfg))


def _run_tail(cfg: ExperimentConfig, art, workers: int):
    rows = _sweep(_tail_rows, cfg, list(enumerate(sorted(cfg.eps_list))), workers)
    reference = _rate_min(cfg).rate
    _write_csv(art("tail.csv"), _TAIL_COLUMNS, rows)
    _write_kv(art("summary.txt"), [("rate_reference", reference), ("mode", cfg.rate_mode)])


def _run_resolvent(cfg: ExperimentConfig, art, workers: int):
    res = resolvent(GridKernel.from_kernel(cfg.k1, cfg.grid))
    _write_resolvent_csv(art("resolvent.csv"), cfg.grid.times, res.weights)


def _resolvent_bytes(cfg: ExperimentConfig) -> int:
    # the resolvent's rows and substitution, and one block of resolvent.csv rows
    n = cfg.grid.n_steps
    return resolvent_bytes(n) + min(BLOCK_ROWS, (n + 1) * n // 2) * _RESOLVENT_ROW_BYTES


def _run_probe(cfg: ExperimentConfig, art, workers: int):
    kern = {"kernel1": cfg.k1, "kernel2": cfg.k2, "kernelc": cfg.kc}[cfg.probe_kernel]
    est = regularity_probe(kern, cfg.probe_t, cfg.probe_h_list)
    _write_csv(art("probe.csv"), ["h", "D"], list(zip(est.h_values, est.d_values)))
    _write_kv(art("summary.txt"), [(key, getattr(est, key)) for key in
                                   ("gamma_hat", "slope", "intercept", "r2", "max_log_residual")])


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: what it requires of its config, builds and holds."""

    run: object  # (cfg, art, workers): runs it, writing each artifact at art(name)
    memory: object  # cfg -> the bytes it holds at its peak beside its weights
    # (cfg.<name> or a rate's "control" kernel, whether a march reads it, whether it is indexed)
    weights: tuple
    kernel2: bool = True  # [kernel2] is required
    target: str | None = None  # rates rate.target_csv (then required) in this fixed mode
    event: bool = False  # rate.event_normal must fit the model and not be zero
    probe: bool = False  # probe.kernel's section must be defined, probe.t + h <= T
    rate_mode: str = "mdp"  # the default rate.mode, where target does not fix it
    sweep: bool = False  # the eps list is a sweep of cells, run at once one per worker


# the drift and noise kernels of a particle march, and a rate's drift and
# control kernels, which it marches and indexes
_MARCHED = (("k1", True, False), ("k2", True, False))
_RATE = (("k1", True, True), ("control", True, True))
# one entry per kind, in the order of the command line's subcommands
_KINDS = {
    "simulate": _Kind(_run_simulate, _simulate_bytes, _MARCHED),
    "limit": _Kind(_run_limit, _limit_bytes, (("k1", True, False),), kernel2=False),
    "clt": _Kind(_run_clt, lambda cfg: clt_sweep_bytes(*_sizes(cfg)), _MARCHED, sweep=True),
    "ldp-rate": _Kind(_run_rate, _rate_bytes, _RATE, target="ldp"),
    "mdp-rate": _Kind(_run_rate, _rate_bytes, _RATE, target="mdp"),
    "rate-min": _Kind(_run_rate_min, _rate_min_bytes, _RATE, event=True, rate_mode="ldp"),
    "tail-probe": _Kind(_run_tail, lambda cfg: crude_cell_bytes(*_sizes(cfg)),
                        _RATE + (("k2", True, False),), event=True, rate_mode="ldp", sweep=True),
    "resolvent": _Kind(_run_resolvent, _resolvent_bytes, (("k1", False, True),), kernel2=False),
    "kernel-probe": _Kind(_run_probe, lambda cfg: 0, (), kernel2=False, probe=True),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def _run_into(cfg: ExperimentConfig, out_dir: str, workers: int) -> tuple:
    artifacts = []
    kind = _KINDS[cfg.kind]

    def art(name):
        artifacts.append(name)
        return os.path.join(out_dir, name)

    # the budget guard: the cells of a sweep run at once, one per worker
    estimate = min(workers, len(cfg.eps_list) if kind.sweep else 1) * _memory_estimate(cfg)
    if estimate > cfg.memory_budget:
        raise BudgetError(
            f"estimated state memory {estimate} bytes exceeds the budget "
            f"{cfg.memory_budget}; lower run.N or grid.n_steps or raise limits.memory_bytes"
        )
    kind.run(cfg, art, workers)
    # and what re-runs it: the exact configuration text and the manifest
    with open(art("config.resolved"), "w") as fh:
        fh.write(cfg.raw_text)
    _write_kv(art("manifest"), [
        ("kind", cfg.kind), ("config_sha256", cfg.sha256), ("library_version", __version__),
        ("seed", cfg.seed), ("grid_T", cfg.grid.horizon), ("grid_n_steps", cfg.grid.n_steps)])
    return tuple(artifacts)


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
        if os.path.isdir(final_dir):
            os.rmdir(final_dir)
        os.replace(tmp_dir, final_dir)
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return RunResult(out_dir=final_dir, artifacts=artifacts,
                     manifest_path=os.path.join(final_dir, "manifest"))


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
