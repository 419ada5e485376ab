"""Per-layer measurement: a traced in-process run of one workload.

The traced run calls ``volterra_mv.cli.main`` with the same arguments as the
end-to-end run.  Spans come from this file alone: wrappers are installed
around the library's public functions at the module attributes where their
callers look them up (``runner.simulate_particles``, ``rng.normal_increments``,
each kernel class's ``average_weights``, ``CoefficientSet.drift``, ...) and
removed again when the run ends.  No library file is edited.

A span records its name, start, end and parent and stays in memory until the
run ends.  A layer's self time is its spans' duration minus what their child
spans cover; the root span's self time is ``trace.unattributed_s``, so the
layer self times plus that add up to the traced wall time.  Counts are taken
at the same wrapped boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import io
import shutil
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from volterra_mv import cli, coefficients, fluctuations, kernels, measures, rates, rng, runner

from workloads import RunCheck, Workload, artifact_bytes, artifact_rows

ROOT = "trace.root"
DEADLINE_S = 150.0

# self-time metric -> span name; every span name except the per-family
# kernel spans maps to exactly one of these
SELF_TIME = {
    "runner.write_s": "runner.run_experiment",
    "solvers.particles_s": "solvers.particles",
    "solvers.limit_s": "solvers.limit",
    "solvers.controlled_s": "solvers.controlled",
    "fluctuations.pair_s": "fluctuations.pair",
    "fluctuations.gap_s": "fluctuations.gap",
    "rng.normal_s": "rng.normal",
    "rates.minimize_s": "rates.minimize",
    "coefficients.eval_s": "coefficients.eval",
    "config.validate_s": "config.validate",
    "trace.unattributed_s": ROOT,
}
WEIGHTS = "kernels.weights."
FAMILIES = ("constant", "power", "fbm")

# (name, unit), in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("runner.write_s", "s"), ("runner.rows", "count"), ("runner.artifact_mb", "MB"),
    ("kernels.weights_s", "s"),
    *[(f"kernels.weights_s.{f}", "s") for f in FAMILIES],
    ("kernels.weights_builds", "count"), ("kernels.weights_distinct", "count"),
    ("kernels.weights_mb", "MB"),
    ("solvers.particles_s", "s"), ("solvers.history_gflop", "GFLOP"),
    ("solvers.history_gb", "GB"), ("solvers.limit_s", "s"),
    ("fluctuations.pair_s", "s"), ("fluctuations.gap_s", "s"),
    ("rng.normal_s", "s"), ("rng.draws", "count"),
    ("rates.minimize_s", "s"), ("rates.iterations", "count"),
    ("rates.forward_solves", "count"), ("rates.solves_per_step", "ratio"),
    ("solvers.controlled_s", "s"), ("solvers.controlled_calls", "count"),
    ("coefficients.eval_s", "s"), ("coefficients.calls", "count"),
    ("coefficients.rows", "count"), ("measures.constructions", "count"),
    ("config.validate_s", "s"), ("config.validate_calls", "count"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
]
# derived from array shapes at the wrapped boundaries, not timed or counted
COMPUTED = ("kernels.weights_mb", "solvers.history_gflop", "solvers.history_gb", "rng.draws")


class Tracer:
    """Spans ``[name, start, end, parent index]`` and counters of one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.kernel_grids = set()
        self.working_set = 0

    def wrap(self, fn, name, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name(args) if callable(name) else name, 0.0, 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def history(self, terms, n_paths, n, d):
        """History sums x[i+1] += w[i+1, :i+1] @ hist[:i+1] over i < n, per term:
        N*d*n(n+1) flops, and the weight row plus N*d history values read per step."""
        self.counts["history_flop"] += terms * n_paths * d * n * (n + 1)
        self.counts["history_bytes"] += terms * 8 * (n_paths * d + 1) * n * (n + 1) // 2


def _particles(tracer, args, ens):
    n_paths, n1, d = ens.states.shape
    n = n1 - 1
    m = ens.driver_increments.shape[2]
    tracer.history(2 if ens.eps > 0 else 1, n_paths, n, d)
    # states, driver increments, drift and noise histories, two weight matrices
    arrays = n_paths * n1 * d + n_paths * n * m + 2 * n * n_paths * d + 2 * n1 * n
    tracer.working_set = max(tracer.working_set, 8 * arrays)


def _pair(tracer, args, pair):
    n_paths, n1, d = pair.z_lim.states.shape
    n = n1 - 1
    tracer.history(2, n_paths, n, d)
    m = pair.z_eps.driver_increments.shape[2]
    # the ensemble's arrays plus both fluctuation paths and the linear histories
    arrays = (3 * n_paths * n1 * d + n_paths * n * m + 4 * n * n_paths * d + 2 * n1 * n)
    tracer.working_set = max(tracer.working_set, 8 * arrays)


def _limit(tracer, args, path):
    tracer.history(1, 1, path.shape[0] - 1, path.shape[1])


def _controlled(tracer, args, path):
    n1, d = path.shape
    tracer.history(2, 1, n1 - 1, d)
    # path, drift and control histories, two weight matrices
    tracer.working_set = max(tracer.working_set, 8 * (3 * n1 * d + 2 * n1 * (n1 - 1)))


def _minimize(tracer, args, sol):
    tracer.counts["rate_iterations"] += sol.iterations


def _draws(tracer, args, dw):
    tracer.counts["draws"] += dw.size


def _rows(tracer, args, out):
    tracer.counts["coefficient_rows"] += out.shape[0]


def _weights(tracer, args, w):
    kernel, grid = args[0], args[1]
    tracer.counts["weights_bytes"] += w.nbytes
    tracer.kernel_grids.add((repr(kernel), grid.horizon, grid.n_steps))


def _weights_name(args):
    return WEIGHTS + args[0].family


def _targets():
    """(owner, attribute, span name, hook) for every wrapped call site."""
    out = [(cli, "validate_config", "config.validate", None),
           (runner, "validate_config", "config.validate", None),
           (cli, "run_experiment", "runner.run_experiment", None)]
    for owner in (runner, fluctuations, rates):
        out.append((owner, "simulate_particles", "solvers.particles", _particles))
        out.append((owner, "solve_deterministic_limit", "solvers.limit", _limit))
    out += [(rates, "solve_controlled_deterministic", "solvers.controlled", _controlled),
            (runner, "clt_pair", "fluctuations.pair", _pair),
            (runner, "clt_gap", "fluctuations.gap", None),
            (runner, "minimize_rate_endpoint", "rates.minimize", _minimize),
            (rng, "normal_increments", "rng.normal", _draws)]
    for method in ("drift", "diffusion", "drift_gradient", "drift_measure_derivative"):
        out.append((coefficients.CoefficientSet, method, "coefficients.eval", _rows))
    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.Kernel) and "average_weights" in vars(cls):
            out.append((cls, "average_weights", _weights_name, _weights))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers; yields the call sites that no longer exist."""
    saved, missing = [], []
    targets = [(o, a, n, h, False) for o, a, n, h in _targets()]
    targets.append((measures.EmpiricalMeasure, "__post_init__", "measure_constructions", None, True))
    try:
        for owner, attr, name, hook, count_only in targets:
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapped = tracer.counter(original, name) if count_only else tracer.wrap(original, name, hook)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _cli_argv(workload: Workload, config: Path, out: Path) -> list:
    return [workload.kind, "--config", str(config), "--out", str(out), "--workers", "1"]


def run_untraced(workload: Workload, config: Path, out: Path) -> tuple:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(_cli_argv(workload, config, out))
        return rc, time.perf_counter() - start


def run_traced(workload: Workload, config: Path, out: Path, tracer: Tracer) -> tuple:
    with contextlib.redirect_stdout(io.StringIO()), installed(tracer) as missing:
        rc = tracer.wrap(cli.main, ROOT)(_cli_argv(workload, config, out))
    return rc, missing


def self_times(spans: list) -> dict:
    cover = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            cover[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - cover[i]
    return out


def _under(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, out: Path) -> dict:
    spans = tracer.spans
    wall = spans[0][2] - spans[0][1]
    own = self_times(spans)
    calls = Counter(s[0] for s in spans)
    unmapped = {n for n in own if n not in SELF_TIME.values() and not n.startswith(WEIGHTS)}
    if unmapped:
        raise RuntimeError(f"spans without a layer metric: {sorted(unmapped)}")
    counts = tracer.counts
    m = {metric: own.get(span, 0.0) for metric, span in SELF_TIME.items()}
    m["kernels.weights_s"] = sum(v for k, v in own.items() if k.startswith(WEIGHTS))
    for family in FAMILIES:
        m[f"kernels.weights_s.{family}"] = own.get(WEIGHTS + family, 0.0)
    layered = sum(m[k] for k in SELF_TIME) + m["kernels.weights_s"]
    if abs(layered - wall) > 1e-9 * max(1.0, wall):
        raise RuntimeError(f"layer self times sum to {layered!r}, traced wall is {wall!r}")
    forward = sum(1 for i, s in enumerate(spans)
                  if s[0] == "solvers.controlled" and _under(spans, i, "rates.minimize"))
    m.update({
        "runner.rows": artifact_rows(out),
        "runner.artifact_mb": artifact_bytes(out) / 1e6,
        "kernels.weights_builds": sum(v for k, v in calls.items() if k.startswith(WEIGHTS)),
        "kernels.weights_distinct": len(tracer.kernel_grids),
        "kernels.weights_mb": counts["weights_bytes"] / 1e6,
        "solvers.history_gflop": counts["history_flop"] / 1e9,
        "solvers.history_gb": counts["history_bytes"] / 1e9,
        "rng.draws": counts["draws"],
        "rates.iterations": counts["rate_iterations"],
        "rates.forward_solves": forward,
        "rates.solves_per_step": forward / counts["rate_iterations"] if counts["rate_iterations"] else 0.0,
        "solvers.controlled_calls": calls["solvers.controlled"],
        "coefficients.calls": calls["coefficients.eval"],
        "coefficients.rows": counts["coefficient_rows"],
        "measures.constructions": counts["measure_constructions"],
        "config.validate_calls": calls["config.validate"],
        "trace.wall_s": wall,
    })
    return m


def write_spans(spans: list, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def measure(workload: Workload, seed: int, seconds: float, sizes: dict,
            work: Path, spans_path: Path | None = None) -> dict:
    """Untraced/traced in-process pairs until ``seconds`` have passed;
    per-layer metrics are medians over the traced runs."""
    begin = time.perf_counter()
    warm = work / "warmup.ini"
    warm.write_text(workload.config_text(seed, workload.tiny))
    run_untraced(workload, warm, work / "warmup")
    shutil.rmtree(work / "warmup", ignore_errors=True)

    config = work / "config.ini"
    config.write_text(workload.config_text(seed, sizes))
    check = RunCheck(workload, sizes)
    runs, working_sets, problems, missing = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        rc, untraced_wall = run_untraced(workload, config, work / "plain")
        tracer = Tracer()
        rc_traced, missing = run_traced(workload, config, work / "traced", tracer)
        for label, code in (("plain", rc), ("traced", rc_traced)):
            attempted += 1
            reasons = check.problems(work / label, code)
            if reasons:
                problems.append(f"{label} run {attempted}: " + "; ".join(reasons))
        if rc_traced == 0:
            metrics = layer_metrics(tracer, work / "traced")
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
            runs.append(metrics)
            working_sets.append(tracer.working_set)
            if spans_path is not None:
                write_spans(tracer.spans, spans_path)
        for label in ("plain", "traced"):
            shutil.rmtree(work / label, ignore_errors=True)

        now = time.perf_counter()
        if now - start >= seconds or now - begin + (now - start) * 2 / attempted > DEADLINE_S:
            break
    medians = {name: statistics.median(r[name] for r in runs) if runs else 0.0
               for name, _ in LAYER_METRICS}
    return {
        "metrics": medians,
        "attempted": attempted,
        "problems": problems,
        "traced_runs": len(runs),
        "working_set_bytes": max(working_sets, default=0),
        "unwrapped": missing,
    }
