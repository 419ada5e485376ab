import csv
import os

import numpy as np
import pytest

from volterra_mv import (
    BudgetError,
    ConfigError,
    GridKernel,
    PathEnsemble,
    TimeGrid,
    resolvent,
)
from volterra_mv.cli import main as cli_main
from volterra_mv.config import validate_config
from volterra_mv.runner import (
    _write_csv,
    _write_ensemble_csv,
    _write_resolvent_csv,
    run_experiment,
    run_from_manifest,
)

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


def _cfg(kind, extra="", base=BASE):
    return validate_config(f"[experiment]\nkind = {kind}\n" + base + extra)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# Oracles: the per-cell csv.writer writers that the runner's % templates
# replaced.  The library writers must reproduce their bytes exactly.
def _oracle_fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return f"{float(x):.17g}"


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


def _oracle_resolvent_csv(path, times, weights):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "value"])
        for i in range(1, len(times)):
            for j in range(i):
                writer.writerow([_oracle_fmt(v) for v in (times[i], times[j], weights[i, j])])


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, -np.nan,
               np.inf, -np.inf, 1e300, -1e300, 1.0, -3.0, 12345678.0, 2.0**53, 0.1, 1 / 3]


def _edge_array(shape, seed):
    # every edge value, then integer-valued and random floats of mixed scale
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    fill = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    fill[1::3] = rng.integers(-10**6, 10**6, size)[1::3]
    fill[:len(EDGE_VALUES)] = EDGE_VALUES
    return fill.reshape(shape)


class TestRunExperiment:
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


class TestWriters:
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

    def test_resolvent_kind_bytes_match_oracle(self, tmp_path):
        text = ("[experiment]\nkind = resolvent\n[kernel1]\nfamily = power\nH = 0.3\n"
                "[grid]\nT = 1.0\nn_steps = 40\n")
        cfg = validate_config(text)
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        r = resolvent(GridKernel.from_kernel(cfg.k1, cfg.grid), method=cfg.resolvent_method)
        _oracle_resolvent_csv(tmp_path / "old.csv", cfg.grid.times, r.weights)
        assert _read(os.path.join(res.out_dir, "resolvent.csv")) == _read(tmp_path / "old.csv")

    def test_cell_and_line_format(self, tmp_path):
        # the format README states: %.17g floats, decimal ints, true/false,
        # None as an empty cell, CRLF line ends
        _write_csv(tmp_path / "t.csv", ["a", "b"],
                   [[True, np.bool_(False), None, 3, np.int64(-4), 0.1, -0.0, np.float64(1e300)],
                    [np.nan, -np.inf]])
        assert _read(tmp_path / "t.csv") == (
            b"a,b\r\ntrue,false,,3,-4,0.10000000000000001,-0,1.0000000000000001e+300\r\n"
            b"nan,-inf\r\n"
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

    def test_env_variable_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLTERRA_MV_WORKERS", "2")
        extra = ("\n[run]\nN = 100\neps_list = [0.5, 1.0]\nseed = 3\n"
                 "[rate]\nmode = ldp\nevent_normal = [1.0]\nevent_level = 0.4\n")
        res = run_experiment(_cfg("tail-probe", extra), out_dir=tmp_path / "env")
        assert os.path.exists(os.path.join(res.out_dir, "tail.csv"))

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

    def test_budget_exit_three(self, tmp_path):
        cfg = self._write_config(tmp_path, extra="\n[limits]\nmemory_bytes = 10\n")
        rc = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3

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
