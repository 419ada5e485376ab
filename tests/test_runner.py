import csv
import ctypes
import glob
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import shortest_text

from volterra_mv import (
    BudgetError,
    ConfigError,
    ConstantKernel,
    FbmKernel,
    GridKernel,
    Halfspace,
    PathEnsemble,
    PowerKernel,
    TimeGrid,
    ensemble_summary,
    resolvent,
    simulate_particles,
    solve_deterministic_limit,
    tail_probability_probe,
    config,
    fluctuations,
    rng,
    runner,
)
from volterra_mv.cli import main as cli_main
from volterra_mv.config import validate_config
from volterra_mv.kernels import LagRows, march_bytes
from volterra_mv.runner import (
    _memory_estimate,
    _model,
    _write_csv,
    _write_ensemble_csv,
    _write_resolvent_csv,
    run_experiment,
    run_from_manifest,
)

SRC = Path(__file__).resolve().parents[1] / "src"

BASE = """
[model]
name = linear_mean_field
A = 1.0
B = 0.5
sigma0 = 1.0
xi = 1.0

[kernel1]
family = constant
c = 1.0

[kernel2]
family = constant
c = 1.0

[grid]
T = 1.0
n_steps = 40

[run]
N = 64
seed = 7
eps = 0.25
p_list = [2]
"""

# the kernels of the clt_rough benchmark workload on the small BASE sizes
ROUGH = BASE.replace("[kernel1]\nfamily = constant\nc = 1.0",
                     "[kernel1]\nfamily = power\nH = 0.3").replace(
    "[kernel2]\nfamily = constant\nc = 1.0", "[kernel2]\nfamily = fbm\nH = 0.3")
CLT_SWEEP = "\n[run]\neps_list = [1e-1, 1e-2, 1e-3, 1e-4]\np_list = [2, 4]\n"


def _cfg(kind, extra="", base=BASE):
    return validate_config(f"[experiment]\nkind = {kind}\n" + base + extra)


def _count_validations(monkeypatch):
    # texts the runner validates from now on
    texts = []
    monkeypatch.setattr(runner, "validate_config",
                        lambda text: texts.append(text) or validate_config(text))
    return texts


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# Oracles: per-cell csv.writer writers.  The runner writes ensemble.csv,
# resolvent.csv and path.csv in blocks of rows formatted by textfmt; it must
# reproduce their bytes exactly.
def _oracle_fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return shortest_text(x)


def _oracle_ensemble_csv(path, ensemble):
    n, steps, d = ensemble.states.shape
    times = ensemble.grid.times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["particle", "step", "t"] + [f"x{k + 1}" for k in range(d)])
        for p in range(n):
            for i in range(steps):
                writer.writerow(
                    [p, i, _oracle_fmt(times[i])] + [_oracle_fmt(v) for v in ensemble.states[p, i]]
                )


def _oracle_path_csv(path, times, states):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t"] + [f"x{k + 1}" for k in range(states.shape[1])])
        for i, t in enumerate(times):
            writer.writerow([i, _oracle_fmt(t)] + [_oracle_fmt(v) for v in states[i]])


def _oracle_resolvent_csv(path, times, weights):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "value"])
        for i in range(1, len(times)):
            for j in range(i):
                writer.writerow([_oracle_fmt(v) for v in (times[i], times[j], weights[i, j])])


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, -np.nan,
               np.inf, -np.inf, 1e300, -1e300, 1.0, -3.0, 12345678.0, 2.0**53, 0.1, 1 / 3]


# sha256 of two small seeded artifacts, a simulate run at d = 2 and an fbm
# resolvent run, recorded with shortest round-trip float text once every
# cell was shown to parse to the double the %.17g text gave.  Their bytes
# must not move.
PINNED_SIMULATE = "\n[model]\ndim = 2\nm = 2\n[run]\nN = 16\n[output]\nensemble_csv = true\n"
PINNED_ENSEMBLE_SHA256 = "0d5eb2d9f144435fa21c78a4932c5330018d05817ee146c3f23bafd98ea89839"
PINNED_RESOLVENT = ("[experiment]\nkind = resolvent\n[kernel1]\nfamily = fbm\nH = 0.3\n"
                    "[grid]\nT = 1.0\nn_steps = 40\n")
PINNED_RESOLVENT_SHA256 = "fc5e49e12cd92f4eb661cc89a3ab871f39dc5e3d31558882f7a267b059147aa4"
# and a resolvent whose history is wide: n = 75 is two whole blocks of far
# rows and a partial one
PINNED_WIDE_RESOLVENT = PINNED_RESOLVENT.replace("n_steps = 40", "n_steps = 75")
PINNED_WIDE_RESOLVENT_SHA256 = "c0a15911f8b9b1a6a39a7e5b91de8c1ddaa0bafd52b5840dbe8e737550eb50b6"
# and, seed 7, the tiny sizes of the clt_rough and rate_min_ldp benchmark
# workloads: a clt sweep whose particle passes fold their sup and keep no
# path, and the control of the ldp rate minimizer
PINNED_CLT = "\n[model]\nsigma1 = 0.5\n[run]\nN = 200\n" + CLT_SWEEP
PINNED_CLT_SHA256 = "72c753689de5674fa29da9ae69795756fdccfb6b633d1ec16a76a03bdc76d559"
PINNED_RATE_MIN = ("\n[model]\nsigma1 = 0.5\nxi = 0.0\n[grid]\nn_steps = 20\n"
                   "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 1.0\n")
PINNED_CONTROL_SHA256 = "2e7ed80bf4bb12a9fc49f58c368a50a96e6493015d93a27af07f9830d54af676"


def _sha256(path):
    return hashlib.sha256(_read(path)).hexdigest()


def _edge_array(shape, seed):
    # every edge value, then integer-valued and random floats of mixed scale
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    fill = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    fill[1::3] = rng.integers(-10**6, 10**6, size)[1::3]
    fill[:len(EDGE_VALUES)] = EDGE_VALUES
    return fill.reshape(shape)


# the dense kinds on a grid whose matrices outweigh the interpreter's own
# allocations: one (n+1) x n weight matrix is 0.72 MB at n = 300
DENSE = "\n[grid]\nn_steps = 300\n"
TAIL = "\n[run]\nN = 500\neps_list = [0.5, 1.0]\n[rate]\nmode = ldp\nevent_level = 0.4\n"


def _target(kind, tmp_path, n):
    # a smooth target path on the n-step grid for a rate kind, starting at
    # xi = 1.0 (ldp) or at zero (mdp), as the [rate] section that reads it
    start = 1.0 if kind == "ldp-rate" else 0.0
    target = tmp_path / f"{kind}.csv"
    target.write_text("t,x1\n" + "".join(
        f"{float(t)!r},{float(start + 0.5 * t * t)!r}\n" for t in np.linspace(0.0, 1.0, n + 1)))
    return f"\n[rate]\ntarget_csv = \"{target}\"\n"


def _dense_cfg(kind, tmp_path, extra="", tabulated=False):
    if kind in ("ldp-rate", "mdp-rate"):
        extra += _target(kind, tmp_path, 300)
    base = BASE
    if tabulated:
        # kernel1 = 1 + t + s, tabulated on 41 nodes
        table = tmp_path / "kernel1.csv"
        nodes = np.linspace(0.0, 1.0, 41).tolist()
        table.write_text("t,s,value\n" + "".join(
            f"{t!r},{s!r},{1.0 + t + s!r}\n" for i, t in enumerate(nodes) for s in nodes[:i]))
        base = BASE.replace("[kernel1]\nfamily = constant\nc = 1.0",
                            f"[kernel1]\nfamily = tabulated\ncsv = \"{table}\"")
    return _cfg(kind, DENSE + extra, base=base)


def _rows_by_chunk(cfg, chunk):
    # a row function for the pool: tags each cell with its chunk's first cell
    return [(chunk[0], cell) for cell in chunk]


def _openblas():
    # the OpenBLAS that numpy's wheels bundle, or None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    return ctypes.CDLL(paths[0]) if paths else None


def _blas_threads(lib):
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _blas_threads_by_chunk(cfg, chunk):
    # a row function for the pool: the BLAS thread count of the worker
    return [_blas_threads(_openblas()) for _ in chunk]


# kernel1 constant and kernel2 power: both stationary
STATIONARY = BASE.replace("[kernel2]\nfamily = constant\nc = 1.0",
                          "[kernel2]\nfamily = power\nH = 0.3")


def _dense_matrices(kernel):
    # the (n+1) x n weight matrices a kernel holds in its caches
    return [x for value in vars(kernel).values()
            for x in (value if isinstance(value, tuple) else (value,))
            if isinstance(x, np.ndarray) and x.ndim == 2]


def _readme_outputs():
    """{kind: artifact names} of the README's "Outputs by experiment kind" table."""
    text = (SRC.parent / "README.md").read_text()
    table = text.split("### Outputs by experiment kind", 1)[1].split("\n#", 1)[0]
    outputs = {}
    for line in table.splitlines():
        cells = line.split("|")
        if len(cells) < 3 or not cells[1].strip().startswith("`"):
            continue
        names = [n for n in cells[2].split("`") if n.endswith((".csv", ".txt"))]
        for kind in cells[1].replace("`", "").split(","):
            outputs[kind.strip()] = tuple(names)
    return outputs


class TestRunExperiment:
    def test_kinds_are_the_table_keys_in_cli_order(self):
        import argparse

        from volterra_mv.cli import build_parser

        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert runner.EXPERIMENT_KINDS == tuple(runner._KINDS) == tuple(sub.choices)
        assert set(_readme_outputs()) == set(runner.EXPERIMENT_KINDS)

    @pytest.mark.parametrize("kind", runner.EXPERIMENT_KINDS)
    def test_artifacts_are_the_readme_outputs(self, tmp_path, kind):
        extra = {"rate-min": "\n[rate]\nevent_level = 3.0\n", "tail-probe": TAIL,
                 "kernel-probe": "\n[probe]\nkernel = kernel2\n"}.get(kind, "")
        cfg = (_dense_cfg(kind, tmp_path, extra) if kind.endswith("-rate")
               else _cfg(kind, extra))
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        assert res.artifacts == _readme_outputs()[kind] + ("config.resolved", "manifest")
        assert sorted(os.listdir(res.out_dir)) == sorted(res.artifacts)

    def test_simulate_artifacts(self, tmp_path):
        res = run_experiment(_cfg("simulate"), out_dir=tmp_path / "out")
        assert set(res.artifacts) == {"ensemble.csv", "summary.csv", "config.resolved", "manifest"}
        with open(os.path.join(res.out_dir, "ensemble.csv")) as fh:
            header = fh.readline().strip()
        assert header == "particle,step,t,x1"
        with open(os.path.join(res.out_dir, "summary.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mean_x1", "var_x1", "moment_p2"]
        assert len(rows) == 42

    def test_limit_kind(self, tmp_path):
        res = run_experiment(_cfg("limit"), out_dir=tmp_path / "out")
        with open(os.path.join(res.out_dir, "path.csv")) as fh:
            rows = list(csv.reader(fh))
        # x(T) for x' = 1.5 x, x(0) = 1 on a coarse grid
        assert float(rows[-1][2]) == pytest.approx(np.exp(1.5), rel=0.05)

    def test_resolvent_kind_oracle(self, tmp_path):
        text = """
[experiment]
kind = resolvent
[kernel1]
family = constant
c = 1.0
[grid]
T = 1.0
n_steps = 1000
"""
        res = run_experiment(validate_config(text), out_dir=tmp_path / "out")
        target = None
        with open(os.path.join(res.out_dir, "resolvent.csv")) as fh:
            for row in csv.DictReader(fh):
                if float(row["t"]) == 1.0 and float(row["s"]) == 0.0:
                    target = float(row["value"])
        assert target == pytest.approx(np.e, rel=0.02)

    def test_clt_row_count_contract(self, tmp_path):
        extra = "\n[run]\nN = 200\neps_list = [1e-1, 1e-2, 1e-3, 1e-4]\np_list = [2, 4]\n"
        res = run_experiment(_cfg("clt", extra), out_dir=tmp_path / "out")
        with open(os.path.join(res.out_dir, "clt.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eps", "gap_p2", "stderr_p2", "gap_p4", "stderr_p4"]
        assert len(rows) == 5

    def test_serial_clt_builds_each_kernel_once(self, tmp_path, monkeypatch):
        # a build is a kernel's dense weights, its packed triangle or, for a
        # stationary kernel, its lags
        builds = []
        for cls in (PowerKernel, FbmKernel):
            for name in ("average_weights", "average_triangle", "average_lags"):
                def counted(self, grid, build=getattr(cls, name)):
                    builds.append(self.family)
                    return build(self, grid)

                monkeypatch.setattr(cls, name, counted)
        validations = _count_validations(monkeypatch)
        run_experiment(_cfg("clt", CLT_SWEEP, base=ROUGH), out_dir=tmp_path / "out", workers=1)
        assert sorted(builds) == ["fbm", "power"]
        assert validations == []

    def test_serial_clt_solves_the_limit_and_draws_once(self, tmp_path, monkeypatch):
        calls = []
        for owner, name in ((fluctuations, "solve_deterministic_limit"),
                            (rng, "normal_increments")):
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        res = run_experiment(_cfg("clt", CLT_SWEEP, base=ROUGH), out_dir=tmp_path / "out",
                             workers=1)
        assert sorted(calls) == ["normal_increments", "solve_deterministic_limit"]
        with open(os.path.join(res.out_dir, "clt.csv")) as fh:
            assert len(list(csv.reader(fh))) == 5

    def test_tail_csv_carries_rel_stderr_and_ess(self, tmp_path):
        # x_T is N(0, eps): at eps = 0.01 no particle reaches 1.5, and that
        # censored cell leaves its estimates empty; a crude cell's ess is its
        # hit count
        extra = ("\n[model]\nA = 0.0\nB = 0.0\nxi = 0.0\n[run]\nN = 200\neps_list = [0.01, 1.0]\n"
                 "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 1.5\n")
        res = run_experiment(_cfg("tail-probe", extra), out_dir=tmp_path / "out")
        with open(os.path.join(res.out_dir, "tail.csv"), newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["eps", "h", "n_hits", "p_hat", "normalized_decay", "censored",
                          "resolved", "rel_stderr", "ess"]
        censored, hit = (dict(zip(header, row)) for row in rows)
        assert censored["censored"] == "true"
        assert [censored[c] for c in ("p_hat", "normalized_decay", "rel_stderr", "ess")] == [""] * 4
        assert hit["censored"] == "false" and int(hit["n_hits"]) > 0
        assert float(hit["ess"]) == int(hit["n_hits"]) and float(hit["rel_stderr"]) > 0.0

    def test_serial_tail_probe_validates_no_text(self, tmp_path, monkeypatch):
        validations = _count_validations(monkeypatch)
        extra = ("\n[run]\nN = 100\neps_list = [0.5, 1.0]\nseed = 3\n"
                 "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 0.4\n")
        run_experiment(_cfg("tail-probe", extra), out_dir=tmp_path / "out", workers=1)
        assert validations == []

    def test_rate_kind_round_trip(self, tmp_path):
        # target generated as the ramp t: recovered rate T/2 with sigma = 1
        target_path = tmp_path / "target.csv"
        grid_times = np.linspace(0.0, 1.0, 41)
        with open(target_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x1"])
            for t in grid_times:
                writer.writerow([f"{t:.17g}", f"{t:.17g}"])
        extra = f"\n[rate]\ntarget_csv = \"{target_path}\"\n"
        base = BASE.replace("A = 1.0", "A = 0.0").replace("B = 0.5", "B = 0.0").replace(
            "xi = 1.0", "xi = 0.0")
        res = run_experiment(_cfg("mdp-rate", extra, base=base), out_dir=tmp_path / "out")
        summary = dict(
            line.strip().split(" = ")
            for line in open(os.path.join(res.out_dir, "summary.txt"))
        )
        assert float(summary["rate"]) == pytest.approx(0.5, abs=1e-8)
        assert summary["attained"] == "true"

    def test_rate_min_kind(self, tmp_path):
        extra = "\n[rate]\nmode = mdp\nevent_normal = [1.0]\nevent_level = 1.0\n"
        base = BASE.replace("A = 1.0", "A = 0.0").replace("B = 0.5", "B = 0.0").replace(
            "xi = 1.0", "xi = 0.0")
        res = run_experiment(_cfg("rate-min", extra, base=base), out_dir=tmp_path / "out")
        summary = dict(
            line.strip().split(" = ")
            for line in open(os.path.join(res.out_dir, "summary.txt"))
        )
        assert float(summary["rate"]) == pytest.approx(0.5, abs=1e-6)

    def test_kernel_probe_kind(self, tmp_path):
        text = """
[experiment]
kind = kernel-probe
[kernel1]
family = power
H = 0.75
[grid]
T = 1.0
n_steps = 10
[probe]
kernel = kernel1
t = 0.5
h_list = [1e-3, 2e-3, 5e-3, 1e-2]
"""
        res = run_experiment(validate_config(text), out_dir=tmp_path / "out")
        summary = dict(
            line.strip().split(" = ")
            for line in open(os.path.join(res.out_dir, "summary.txt"))
        )
        assert float(summary["gamma_hat"]) == pytest.approx(0.75, abs=0.02)

    def test_budget_guard_refuses_before_allocation(self, tmp_path):
        extra = "\n[limits]\nmemory_bytes = 1000\n"
        with pytest.raises(BudgetError):
            run_experiment(_cfg("simulate", extra), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_clt_estimate_tracks_traced_peak(self, traced_peak):
        cfg = _cfg("clt", "\n[run]\nN = 500\neps_list = [0.25]\n")
        peak = traced_peak(cfg)
        assert peak / 1.5 <= _memory_estimate(cfg) <= 1.5 * peak

    def test_simulate_estimate_tracks_traced_peak(self, traced_peak):
        cfg = _cfg("simulate", "\n[run]\nN = 500\n")
        peak = traced_peak(cfg)
        assert peak / 1.5 <= _memory_estimate(cfg) <= 1.5 * peak

    def test_one_particle_blocks_estimate_tracks_traced_peak(self, traced_peak, monkeypatch):
        # blocks of 16 rows hold less than one particle of 201 steps, so
        # each block of ensemble.csv is one whole particle
        monkeypatch.setattr(runner, "BLOCK_ROWS", 16)
        cfg = _cfg("simulate", "\n[grid]\nn_steps = 200\n[run]\nN = 500\n")
        peak = traced_peak(cfg)
        assert peak / 1.5 <= _memory_estimate(cfg) <= 1.5 * peak

    def test_chained_clt_estimate_tracks_traced_peak(self, traced_peak):
        cfg = _cfg("clt", "\n[run]\nN = 500\neps_list = [1e-1, 1e-2, 1e-3, 1e-4]\n")
        peak = traced_peak(cfg)
        assert peak / 1.5 <= _memory_estimate(cfg) <= 1.5 * peak

    def test_tail_estimate_tracks_traced_peak(self, traced_peak):
        # a crude cell keeps only its current state slab
        cfg = _cfg("tail-probe", TAIL)
        peak = traced_peak(cfg)
        assert peak / 1.5 <= _memory_estimate(cfg) <= 1.5 * peak

    @pytest.mark.parametrize("kind, extra, tabulated", [
        ("limit", "", False),
        ("rate-min", "\n[rate]\nevent_level = 3.0\n", False),
        ("rate-min", "\n[rate]\nmode = mdp\n", False),
        ("ldp-rate", "", False),
        ("ldp-rate", "\n[rate]\nlambda_reg = 0.01\n", False),
        ("mdp-rate", "", False),
        ("resolvent", "", False),
        # the peak is the weight build: about 14 temporaries of
        # TabulatedKernel.__call__ on a block of quadrature nodes
        ("limit", "\n[grid]\nn_steps = 400\n", True),
        # the peak is the weight build: the packed triangle, the index pair
        # of its cells and about 10 temporaries of FbmKernel's correction
        ("limit", "\n[kernel1]\nfamily = fbm\nH = 0.3\n[grid]\nn_steps = 400\n", False),
    ], ids=["limit", "rate-min-ldp", "rate-min-mdp", "ldp-rate", "ldp-rate-ridge",
            "mdp-rate", "resolvent-direct", "limit-tabulated", "limit-fbm"])
    def test_dense_estimate_tracks_traced_peak(self, traced_peak, tmp_path, kind, extra,
                                               tabulated):
        cfg = _dense_cfg(kind, tmp_path, extra, tabulated)
        peak = traced_peak(cfg)
        # the minimizer's stacks along the path are filled in place, and its
        # paths and march counted
        low = 0.8 if kind == "rate-min" else 1 / 1.5
        assert low * peak <= _memory_estimate(cfg) <= 1.5 * peak

    @pytest.mark.parametrize("kind", ["simulate", "limit", "clt", "tail-probe", "ldp-rate",
                                      "mdp-rate", "rate-min", "resolvent"])
    def test_base_size_estimate_tracks_traced_peak(self, traced_peak, tmp_path, kind):
        # at n = 40, N = 64 an open artifact file (about 4.8 KB) is a large
        # share of a limit's or a rate's peak
        extra = {"tail-probe": TAIL, "rate-min": "\n[rate]\nevent_level = 3.0\n"}.get(kind, "")
        if kind in ("ldp-rate", "mdp-rate"):
            extra = _target(kind, tmp_path, 40)
        cfg = _cfg(kind, extra)
        peak = traced_peak(cfg)
        assert peak / 1.5 <= _memory_estimate(cfg) <= 1.5 * peak

    def test_indexed_only_kernel_holds_its_march_form_in_its_build(self, traced_peak):
        # resolvent indexes k1 and no march reads it: its packed triangle is
        # held only while the matrix is built from it, beside the build's
        # scratch, so it counts in that phase and not beside the run's
        # arrays, where it made 7,274,640 bytes
        cfg = validate_config(PINNED_RESOLVENT.replace("n_steps = 40", "n_steps = 300"))
        form, scratch = march_bytes(cfg.k1, 300)
        assert (form, form + scratch) == (361_200, 3_615_360)
        assert _memory_estimate(cfg) == 6_913_440
        assert _memory_estimate(cfg) <= 1.5 * traced_peak(cfg)

    def test_chained_clt_peaks_as_one_pair(self, traced_peak, history_buffers):
        # each pair lends X^0, the increments, Z and the history buffers of
        # its first pair's Z march to the next and drops its Z^eps first, so
        # a sweep holds what one pair does and maps no more history buffers
        one = traced_peak(_cfg("clt", "\n[run]\nN = 500\neps_list = [0.25]\n"))
        lent_one, fresh_one = history_buffers.count(False), history_buffers.count(True)
        history_buffers.clear()
        four = traced_peak(_cfg("clt", "\n[run]\nN = 500\neps_list = [1e-1, 1e-2, 1e-3, 1e-4]\n"))
        assert four <= 1.05 * one
        assert history_buffers.count(True) == fresh_one
        # in the warm run and the traced one, the two histories of each of
        # the three extra passes run on lent buffers
        assert history_buffers.count(False) == lent_one + 2 * 2 * 3

    def test_small_clt_estimate_counts_the_bootstrap(self, traced_peak):
        # at the default N = 64, n = 40 the peak is the bootstrap's block of
        # resample indices and values, after the march arrays are freed
        cfg = _cfg("clt")
        peak = traced_peak(cfg)
        assert 0.8 * peak <= _memory_estimate(cfg) <= 1.5 * peak

    @pytest.mark.parametrize("kind", ["simulate", "clt", "tail-probe"])
    def test_increments_are_drawn_once(self, tmp_path, monkeypatch, kind):
        # a pass that draws its own increments reads them a block at a time,
        # and the clt pairs share one draw: no run draws an increment twice
        drawn = []
        real = rng._step_increments

        def counting(*args):
            block = real(*args)
            drawn.append(block.size)
            return block

        monkeypatch.setattr(rng, "_step_increments", counting)
        extra = {"simulate": "", "clt": CLT_SWEEP, "tail-probe": TAIL}[kind]
        cfg = _cfg(kind, extra)
        run_experiment(cfg, out_dir=tmp_path / "out", workers=1)
        cells = len(cfg.eps_list) if kind == "tail-probe" else 1
        assert sum(drawn) == cells * cfg.n_particles * cfg.grid.n_steps * cfg.coeffs.m

    def test_no_partial_artifacts_on_error(self, tmp_path):
        extra = "\n[rate]\ntarget_csv = \"/nonexistent/file.csv\"\n"
        with pytest.raises((ConfigError, OSError)):
            run_experiment(_cfg("mdp-rate", extra), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        leftovers = [p for p in os.listdir(tmp_path) if "partial" in p]
        assert not leftovers

    def test_refuses_nonempty_output(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        with pytest.raises(ConfigError):
            run_experiment(_cfg("limit"), out_dir=out)


class TestLagWeights:
    @pytest.mark.parametrize("kind", ["simulate", "clt", "limit"])
    def test_marching_kinds_build_no_dense_matrix_of_a_stationary_kernel(self, tmp_path, kind):
        cfg = _cfg(kind, base=STATIONARY)
        run_experiment(cfg, out_dir=tmp_path / "out", workers=1)
        marched = (cfg.k1,) if kind == "limit" else (cfg.k1, cfg.k2)
        for kern in marched:
            assert _dense_matrices(kern) == []
            lags = kern._march_cache[1]
            assert isinstance(lags, LagRows) and lags.n_steps == cfg.grid.n_steps

    def test_crude_tail_probe_builds_no_dense_matrix_of_a_stationary_kernel(self):
        cfg = _cfg("tail-probe", TAIL, base=STATIONARY)
        res = tail_probability_probe(_model(cfg), "ldp", Halfspace(normal=[1.0], level=0.4),
                                     cfg.eps_list, cfg.n_particles, cfg.seed, cfg.grid,
                                     xi=cfg.xi, with_reference=False)
        assert len(res.cells) == 2
        for kern in (cfg.k1, cfg.k2):
            assert _dense_matrices(kern) == []

    @pytest.mark.parametrize("kind", ["rate-min", "ldp-rate"])
    def test_rate_kinds_build_the_dense_matrix(self, tmp_path, kind):
        # the rate functionals index the matrix of the drift and control kernel
        cfg = _dense_cfg(kind, tmp_path)
        run_experiment(cfg, out_dir=tmp_path / "out")
        n = cfg.grid.n_steps
        assert [w.shape for w in _dense_matrices(cfg.k1)] == [(n + 1, n)]


def _assert_cells_are(path, expected):
    # every cell of the file parses to the bits of its source double, in the
    # oracle's text, row for row and column for column
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = np.asarray(expected, dtype=float)
    assert [len(row) for row in rows] == [expected.shape[1]] * expected.shape[0]
    texts = [cell for row in rows for cell in row]
    got = np.array([float(cell) for cell in texts])
    assert np.array_equal(got.view(np.uint64), expected.ravel().view(np.uint64))
    assert texts == [shortest_text(v) for v in expected.ravel().tolist()]


class TestWriters:
    def test_artifacts_read_back_as_their_doubles(self, tmp_path):
        cfg = _cfg("simulate", PINNED_SIMULATE, base=ROUGH)
        out = run_experiment(cfg, out_dir=tmp_path / "sim").out_dir
        ens = simulate_particles(cfg.k1, cfg.k2, cfg.coeffs, cfg.xi, cfg.eps_list[0], cfg.grid,
                                 cfg.n_particles, cfg.seed)
        n, steps, d = ens.states.shape
        times = cfg.grid.times
        _assert_cells_are(os.path.join(out, "ensemble.csv"), np.column_stack([
            np.repeat(np.arange(n), steps), np.tile(np.arange(steps), n), np.tile(times, n),
            ens.states.reshape(-1, d)]))
        summary = ensemble_summary(ens, p_list=cfg.p_list)
        _assert_cells_are(os.path.join(out, "summary.csv"), np.column_stack(
            [summary["t"], summary["mean"], summary["var"]]
            + [summary[f"moment_p{p}"] for p in cfg.p_list]))

        cfg = validate_config(PINNED_RESOLVENT)
        out = run_experiment(cfg, out_dir=tmp_path / "res").out_dir
        weights = resolvent(GridKernel.from_kernel(cfg.k1, cfg.grid)).weights
        i, j = np.tril_indices(cfg.grid.n_steps + 1, -1)
        times = cfg.grid.times
        _assert_cells_are(os.path.join(out, "resolvent.csv"),
                          np.column_stack([times[i], times[j], weights[i, j]]))

        cfg = _cfg("limit", base=ROUGH)
        out = run_experiment(cfg, out_dir=tmp_path / "limit").out_dir
        path = solve_deterministic_limit(cfg.k1, cfg.coeffs, cfg.xi, cfg.grid)
        times = cfg.grid.times
        _assert_cells_are(os.path.join(out, "path.csv"),
                          np.column_stack([np.arange(len(times)), times, path]))

    @pytest.mark.parametrize("d", [1, 3])
    def test_ensemble_bytes_match_oracle(self, tmp_path, d):
        grid = TimeGrid(0.7, 9)
        states = _edge_array((5, 10, d), seed=d)
        ens = PathEnsemble(grid=grid, states=states, driver_increments=np.zeros((5, 9, 1)),
                           seed=0, tag="edge", eps=0.1)
        _write_ensemble_csv(tmp_path / "new.csv", ens)
        _oracle_ensemble_csv(tmp_path / "old.csv", ens)
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "old.csv")

    def test_resolvent_bytes_match_oracle(self, tmp_path):
        times = TimeGrid(0.7, 12).times
        weights = np.tril(_edge_array((13, 12), seed=5), -1)
        weights[12] = EDGE_VALUES[:12]  # tril zeroed row 0, where they sat
        _write_resolvent_csv(tmp_path / "new.csv", times, weights)
        _oracle_resolvent_csv(tmp_path / "old.csv", times, weights)
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "old.csv")

    @pytest.mark.parametrize("block", [7, 10, 1000])
    def test_ensemble_blocks_match_oracle(self, tmp_path, monkeypatch, block):
        # 50 rows of 10 steps, d = 2: blocks of 7 end mid-particle and leave
        # a last block of 1 row, blocks of 10 end on particles, 1000 is one block
        monkeypatch.setattr(runner, "BLOCK_ROWS", block)
        grid = TimeGrid(0.7, 9)
        states = _edge_array((5, 10, 2), seed=11)
        ens = PathEnsemble(grid=grid, states=states, driver_increments=np.zeros((5, 9, 1)),
                           seed=0, tag="edge", eps=0.1)
        _write_ensemble_csv(tmp_path / "new.csv", ens)
        _oracle_ensemble_csv(tmp_path / "old.csv", ens)
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "old.csv")

    def test_particle_longer_than_a_block_matches_oracle(self, tmp_path, monkeypatch):
        # blocks of 4 rows hold less than one particle of 10 steps, so each
        # block is one whole particle, and each starts and ends on values
        # that textfmt leaves to Python's %
        monkeypatch.setattr(runner, "BLOCK_ROWS", 4)
        grid = TimeGrid(0.7, 9)
        states = _edge_array((3, 10, 2), seed=17)
        fallback = np.array([0.0, -0.0, 5e-324, 1e13, np.nan, np.inf]).reshape(3, 2)
        states[:, 0] = fallback
        states[:, -1] = -fallback[::-1]
        ens = PathEnsemble(grid=grid, states=states, driver_increments=np.zeros((3, 9, 1)),
                           seed=0, tag="edge", eps=0.1)
        _write_ensemble_csv(tmp_path / "new.csv", ens)
        _oracle_ensemble_csv(tmp_path / "old.csv", ens)
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "old.csv")

    def test_seeded_artifact_bytes_are_pinned(self, tmp_path):
        res = run_experiment(_cfg("simulate", PINNED_SIMULATE), out_dir=tmp_path / "sim")
        assert _sha256(os.path.join(res.out_dir, "ensemble.csv")) == PINNED_ENSEMBLE_SHA256
        res = run_experiment(validate_config(PINNED_RESOLVENT), out_dir=tmp_path / "res")
        assert _sha256(os.path.join(res.out_dir, "resolvent.csv")) == PINNED_RESOLVENT_SHA256
        res = run_experiment(validate_config(PINNED_WIDE_RESOLVENT), out_dir=tmp_path / "wide")
        assert _sha256(os.path.join(res.out_dir, "resolvent.csv")) == PINNED_WIDE_RESOLVENT_SHA256
        res = run_experiment(_cfg("clt", PINNED_CLT, base=ROUGH), out_dir=tmp_path / "clt")
        assert _sha256(os.path.join(res.out_dir, "clt.csv")) == PINNED_CLT_SHA256
        res = run_experiment(_cfg("rate-min", PINNED_RATE_MIN), out_dir=tmp_path / "rate")
        assert _sha256(os.path.join(res.out_dir, "control.csv")) == PINNED_CONTROL_SHA256

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("block", [7, 30, 128])
    def test_path_blocks_match_oracle(self, tmp_path, monkeypatch, d, block):
        # 30 rows: blocks of 7 leave a last block of 2 rows, 30 is one whole
        # block and 128 one partial block
        monkeypatch.setattr(runner, "PATH_BLOCK_ROWS", block)
        times = TimeGrid(0.7, 29).times
        states = _edge_array((30, d), seed=11 + d)
        runner._write_path_csv(tmp_path / "new.csv", times, states)
        _oracle_path_csv(tmp_path / "old.csv", times, states)
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "old.csv")

    @pytest.mark.parametrize("block", [7, 11, 1000])
    def test_resolvent_blocks_match_oracle(self, tmp_path, monkeypatch, block):
        # 78 rows: blocks of 7 leave a last block of 1 row and split the rows
        # of one t_i, blocks of 11 split others, 1000 is one block
        monkeypatch.setattr(runner, "BLOCK_ROWS", block)
        times = TimeGrid(0.7, 12).times
        weights = np.tril(_edge_array((13, 13), seed=13), -1)
        _write_resolvent_csv(tmp_path / "new.csv", times, weights)
        _oracle_resolvent_csv(tmp_path / "old.csv", times, weights)
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "old.csv")

    def test_resolvent_kind_bytes_match_oracle(self, tmp_path):
        text = ("[experiment]\nkind = resolvent\n[kernel1]\nfamily = power\nH = 0.3\n"
                "[grid]\nT = 1.0\nn_steps = 40\n")
        cfg = validate_config(text)
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        r = resolvent(GridKernel.from_kernel(cfg.k1, cfg.grid))
        _oracle_resolvent_csv(tmp_path / "old.csv", cfg.grid.times, r.weights)
        assert _read(os.path.join(res.out_dir, "resolvent.csv")) == _read(tmp_path / "old.csv")

    def test_cell_and_line_format(self, tmp_path):
        # the format README states: shortest round-trip floats, decimal ints,
        # true/false, None as an empty cell, CRLF line ends
        _write_csv(tmp_path / "t.csv", ["a", "b"],
                   [[True, np.bool_(False), None, 3, np.int64(-4), 0.1, -0.0, np.float64(1e300)],
                    [np.nan, -np.inf, 1 / 3, 2.0**60, 0.005, 1e16]])
        assert _read(tmp_path / "t.csv") == (
            b"a,b\r\ntrue,false,,3,-4,0.1,-0,1e+300\r\n"
            b"nan,-inf,0.3333333333333333,1.152921504606847e+18,0.005,10000000000000000\r\n"
        )


class TestReproducibility:
    def test_manifest_round_trip_bitwise(self, tmp_path):
        res = run_experiment(_cfg("simulate"), out_dir=tmp_path / "a")
        res2 = run_from_manifest(res.manifest_path, out_dir=tmp_path / "b")
        for name in ("ensemble.csv", "summary.csv"):
            assert _read(os.path.join(res.out_dir, name)) == _read(
                os.path.join(res2.out_dir, name)
            )

    def test_worker_count_independence(self, tmp_path):
        extra = ("\n[run]\nN = 400\neps_list = [0.25, 0.5, 1.0]\nseed = 3\n"
                 "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 0.4\n")
        outs = {}
        for workers in (1, 4, 16):
            res = run_experiment(_cfg("tail-probe", extra),
                                 out_dir=tmp_path / f"w{workers}", workers=workers)
            outs[workers] = _read(os.path.join(res.out_dir, "tail.csv"))
        assert outs[1] == outs[4] == outs[16]

    def test_clt_worker_count_independence(self, tmp_path):
        outs = {}
        for workers in (1, 2):
            res = run_experiment(_cfg("clt", CLT_SWEEP, base=ROUGH),
                                 out_dir=tmp_path / f"w{workers}", workers=workers)
            outs[workers] = _read(os.path.join(res.out_dir, "clt.csv"))
        assert outs[1] == outs[2]

    def test_clt_uneven_chunks_keep_bytes(self, tmp_path):
        # 3 workers split the 4 cells into chunks of 1, 1 and 2
        outs = {}
        for workers in (1, 2, 3):
            res = run_experiment(_cfg("clt", CLT_SWEEP, base=ROUGH),
                                 out_dir=tmp_path / f"w{workers}", workers=workers)
            outs[workers] = _read(os.path.join(res.out_dir, "clt.csv"))
        assert outs[1] == outs[2] == outs[3]

    def test_clt_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # N d = 500 is a wide history, whose far parts are GEMMs that BLAS
        # may split over threads; BLAS reads its thread count once, when numpy
        # loads, so each count runs in a fresh interpreter
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\nkind = clt\n" + ROUGH + CLT_SWEEP
                       + "\n[grid]\nn_steps = 80\n[run]\nN = 500\n")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "volterra_mv.cli", "clt", "--config", str(cfg),
                 "--out", str(out), "--workers", "1"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(_read(out / "clt.csv"))
        assert outs[0] == outs[1]

    def test_pool_splits_cells_into_contiguous_chunks(self):
        rows = runner._sweep(_rows_by_chunk, _cfg("clt", CLT_SWEEP), list(range(7)), workers=3)
        assert rows == [(0, 0), (0, 1), (2, 2), (2, 3), (4, 4), (4, 5), (4, 6)]

    def test_pool_workers_run_one_blas_thread(self):
        lib = _openblas()
        if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy bundles no scipy-openblas here")
        before = _blas_threads(lib)
        setter = lib.scipy_openblas_set_num_threads64_
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(2)
        try:
            rows = runner._sweep(_blas_threads_by_chunk, _cfg("clt", CLT_SWEEP), [0, 1],
                                 workers=2)
        finally:
            setter(before)
        assert rows == [1, 1]

    def test_pool_workers_see_a_model_registered_at_run_time(self, tmp_path, monkeypatch):
        # workers validate the config text again, so they must inherit the
        # registry of the process that started the pool
        def build(params):
            coeffs, xi = config._build_linear_mean_field(params)
            return coeffs, 2.0 * xi

        monkeypatch.setitem(config.MODEL_REGISTRY, "run_time_linear", build)
        base = ROUGH.replace("name = linear_mean_field", "name = run_time_linear")
        outs = {}
        for workers in (1, 2):
            res = run_experiment(_cfg("clt", CLT_SWEEP, base=base),
                                 out_dir=tmp_path / f"w{workers}", workers=workers)
            outs[workers] = _read(os.path.join(res.out_dir, "clt.csv"))
        assert outs[1] == outs[2]

    def test_env_variable_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLTERRA_MV_WORKERS", "2")
        extra = ("\n[run]\nN = 100\neps_list = [0.5, 1.0]\nseed = 3\n"
                 "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 0.4\n")
        res = run_experiment(_cfg("tail-probe", extra), out_dir=tmp_path / "env")
        assert os.path.exists(os.path.join(res.out_dir, "tail.csv"))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_counts_below_one_are_refused(self, tmp_path, workers):
        with pytest.raises(ConfigError, match=f"workers must be at least 1, got {workers}"):
            run_experiment(_cfg("limit"), out_dir=tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("env", ["0", "-1"])
    def test_env_worker_counts_below_one_are_refused(self, tmp_path, monkeypatch, env):
        monkeypatch.setenv("VOLTERRA_MV_WORKERS", env)
        with pytest.raises(ConfigError, match=f"VOLTERRA_MV_WORKERS must be at least 1, got {env}"):
            run_experiment(_cfg("limit"), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, extra", [
        ("simulate", ""), ("limit", ""), ("clt", ""), ("ldp-rate", ""), ("mdp-rate", ""),
        ("rate-min", "\n[rate]\nevent_level = 3.0\n"), ("tail-probe", TAIL), ("resolvent", ""),
        ("kernel-probe", "\n[probe]\nkernel = kernel1\nt = 0.5\nh_list = [1e-3, 2e-3, 5e-3, 1e-2]\n"),
    ])
    def test_manifest_hash_is_the_sha256_of_the_config(self, tmp_path, kind, extra):
        # the built-in SHA-256 the manifest takes agrees with hashlib's
        cfg = (_dense_cfg(kind, tmp_path, extra) if kind.endswith("-rate")
               else _cfg(kind, extra, base=ROUGH))
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        manifest = dict(line.strip().split(" = ", 1) for line in open(res.manifest_path))
        want = hashlib.sha256(_read(os.path.join(res.out_dir, "config.resolved"))).hexdigest()
        assert manifest["config_sha256"] == want == cfg.sha256

    def test_manifest_hash_mismatch_detected(self, tmp_path):
        res = run_experiment(_cfg("limit"), out_dir=tmp_path / "a")
        with open(os.path.join(res.out_dir, "config.resolved"), "a") as fh:
            fh.write("\n# tampered\n")
        with pytest.raises(ConfigError):
            run_from_manifest(res.manifest_path, out_dir=tmp_path / "b")


class TestCli:
    def _write_config(self, tmp_path, kind="simulate", base=BASE, extra=""):
        path = tmp_path / "exp.cfg"
        path.write_text(f"[experiment]\nkind = {kind}\n" + base + extra)
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        rc = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "ensemble.csv" in capsys.readouterr().out

    def test_validation_exit_one(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, extra="\n[run]\neps = 1.5\n")
        rc = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "run.eps[0]" in capsys.readouterr().err

    def test_output_under_a_file_exit_two(self, tmp_path, capsys):
        # the output's parent is a regular file: one runtime line naming it,
        # and nothing left beside it
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        cfg = self._write_config(tmp_path, kind="rate-min")
        rc = cli_main(["rate-min", "--config", cfg, "--out", str(blocker / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: ")
        assert str(blocker) in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["FILE", "exp.cfg"]

    def test_failed_artifact_write_exit_two(self, tmp_path, capsys, monkeypatch):
        # a write that fails without a file name (a full disk) still names the
        # output directory, and the partial directory is removed
        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner, "_write_kv", full)
        cfg = self._write_config(tmp_path, kind="rate-min")
        out = tmp_path / "out"
        rc = cli_main(["rate-min", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: ")
        assert str(out) in err[0] and "No space left on device" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")],
                             ids=["flag-zero", "flag-negative", "env-zero"])
    def test_worker_count_below_one_exit_one(self, tmp_path, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("VOLTERRA_MV_WORKERS", env)
        cfg = self._write_config(tmp_path)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        rc = cli_main(argv + (["--workers", flag] if flag is not None else []))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "must be at least 1" in err[0]
        assert not (tmp_path / "out").exists()

    def test_budget_exit_three(self, tmp_path):
        cfg = self._write_config(tmp_path, extra="\n[limits]\nmemory_bytes = 10\n")
        rc = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_equal_kernel_sections_are_budgeted_once(self):
        # the rate_min_ldp benchmark config: its two equal constant sections
        # are one kernel, whose 100 lags and 101 x 100 matrix count once
        # (171,488 bytes if each section had its own kernel)
        cfg = validate_config(
            "[experiment]\nkind = rate-min\n[model]\nname = linear_mean_field\nA = 1.0\n"
            "B = 0.5\nsigma0 = 1.0\nsigma1 = 0.5\nxi = 0.0\n[kernel1]\nfamily = constant\n"
            "c = 1.0\n[kernel2]\nfamily = constant\nc = 1.0\n[grid]\nT = 1.0\nn_steps = 100\n"
            "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 1.0\n[run]\nseed = 7\n")
        assert cfg.k1 is cfg.k2
        assert _memory_estimate(cfg) == 89888

    def test_clt_budget_counts_the_cell(self, tmp_path, monkeypatch):
        # N = 64, n = 40, d = 1: the old guard counted 2 N n d floats of 8 bytes
        old = 2 * 64 * 40 * 1 * 8
        new = _memory_estimate(_cfg("clt"))
        budget = (old + new) // 2
        assert old < budget < new
        calls = []
        monkeypatch.setattr(runner, "clt_pair", lambda *args: calls.append(args))
        cfg = self._write_config(tmp_path, kind="clt",
                                 extra=f"\n[limits]\nmemory_bytes = {budget}\n")
        rc = cli_main(["clt", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_clt_budget_counts_the_pool_cells(self, tmp_path):
        one_cell = _memory_estimate(_cfg("clt", CLT_SWEEP))
        budget = 3 * one_cell // 2
        cfg = self._write_config(tmp_path, kind="clt", extra=CLT_SWEEP
                                 + f"\n[limits]\nmemory_bytes = {budget}\n")
        rc = cli_main(["clt", "--config", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"])
        assert rc == 3
        assert not (tmp_path / "w2").exists()
        rc = cli_main(["clt", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
        assert rc == 0

    def test_tail_budget_counts_the_pool_cells(self, tmp_path):
        extra = ("\n[run]\nN = 100\neps_list = [0.5, 1.0]\nseed = 3\n"
                 "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 0.4\n")
        one_cell = _memory_estimate(_cfg("tail-probe", extra))
        budget = 3 * one_cell // 2
        cfg = self._write_config(tmp_path, kind="tail-probe", extra=extra
                                 + f"\n[limits]\nmemory_bytes = {budget}\n")
        rc = cli_main(["tail-probe", "--config", cfg, "--out", str(tmp_path / "w2"),
                       "--workers", "2"])
        assert rc == 3
        assert not (tmp_path / "w2").exists()
        rc = cli_main(["tail-probe", "--config", cfg, "--out", str(tmp_path / "w1"),
                       "--workers", "1"])
        assert rc == 0

    @pytest.mark.parametrize("kind", ["limit", "ldp-rate", "mdp-rate", "rate-min", "resolvent"])
    def test_dense_kinds_exit_three_before_allocating(self, tmp_path, monkeypatch, kind):
        # a tiny budget refuses each kind before its first grid weights,
        # packed triangle or lags
        built = []
        for name in ("average_weights", "average_triangle", "average_lags"):
            monkeypatch.setattr(ConstantKernel, name, lambda *args: built.append(args))
        start = 0.0 if kind == "mdp-rate" else 1.0
        target = tmp_path / "target.csv"
        target.write_text("t,x1\n" + "".join(
            f"{float(t)!r},{float(start + t)!r}\n" for t in np.linspace(0.0, 1.0, 41)))
        cfg = self._write_config(tmp_path, kind=kind, extra=f"\n[rate]\ntarget_csv = \"{target}\"\n"
                                 "\n[limits]\nmemory_bytes = 1000\n")
        rc = cli_main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert built == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cells, issue", [
        ({3: ["np.float64(0.075)", "0.0"]}, "could not convert string to float"),
        ({3: ["0.075", "0.0", "0.0"]}, "got 41 rows and 2/3 columns"),
        ("empty", "has no header line"),
        ("missing", "No such file"),
    ], ids=["numpy-repr", "ragged", "empty", "missing"])
    def test_bad_target_csv_exit_one(self, tmp_path, capsys, cells, issue):
        # 41 rows on the n = 40 grid, with the given rows replaced
        target = tmp_path / "target.csv"
        if cells == "empty":
            target.write_text("")
        elif cells != "missing":
            rows = [[repr(float(t)), "0.0"] for t in np.linspace(0.0, 1.0, 41)]
            for k, row in cells.items():
                rows[k] = row
            target.write_text("t,x1\n" + "".join(",".join(r) + "\n" for r in rows))
        cfg = self._write_config(tmp_path, kind="ldp-rate",
                                 base=BASE.replace("xi = 1.0", "xi = 0.0"), extra=f"\n[rate]\ntarget_csv = \"{target}\"\n")
        rc = cli_main(["ldp-rate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: rate.target_csv: " in err and issue in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, anchor", [("ldp-rate", "[1.0]"), ("mdp-rate", "[0.0]")])
    def test_target_off_its_anchor_exit_one(self, tmp_path, capsys, kind, anchor):
        # xi = 1.0: an ldp target starts at xi, an mdp target at 0; this one starts at 0.2
        target = tmp_path / "target.csv"
        rows = [f"{t!r},{0.2 + t!r}\n" for t in np.linspace(0.0, 1.0, 41).tolist()]
        target.write_text("t,x1\n" + "".join(rows))
        cfg = self._write_config(tmp_path, kind=kind, extra=f"\n[rate]\ntarget_csv = \"{target}\"\n")
        rc = cli_main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error: rate.target_csv: target must start at {anchor}" in err
        assert "got [0.2]" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_one(self, tmp_path):
        rc = cli_main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        rc1 = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "1"])
        rc2 = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "2"])
        assert rc1 == rc2 == 0
        assert _read(tmp_path / "s1" / "ensemble.csv") != _read(tmp_path / "s2" / "ensemble.csv")

    def test_kind_defaults_from_subcommand(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text(BASE)
        rc = cli_main(["limit", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
