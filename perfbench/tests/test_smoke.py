"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

They live apart from the library's suite under ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import endtoend  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from volterra_mv import runner, solvers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PRIMARY_CSV = {"simulate_csv": "ensemble.csv", "clt_rough": "clt.csv", "rate_min_ldp": "control.csv"}
NAMES = sorted(WORKLOADS)


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(endtoend, "SETUP_REPEATS", 1)


def edit_cell(path: Path, row: int, value: str) -> None:
    """Replace the last cell of one data row."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[-1] = value
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def run_tiny(name: str, tmp_path: Path) -> Path:
    w = WORKLOADS[name]
    config = tmp_path / "config.ini"
    config.write_text(w.config_text(11, w.tiny))
    out = tmp_path / "out"
    done = endtoend.run_cli(w.kind, config, out, endtoend.child_env(SRC), timeout=60.0)
    assert done.returncode == 0, done.log
    return out


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run_passes_its_checks(name, tmp_path):
    w = WORKLOADS[name]
    m = endtoend.measure(w, 11, 0.0, w.tiny, SRC, tmp_path)
    assert m.attempted == endtoend.MIN_RUNS
    assert m.problems == []
    assert all(value > 0 for value in m.medians().values())


@pytest.mark.parametrize("name", NAMES)
def test_edited_cell_fails_the_output_check(name, tmp_path):
    out = run_tiny(name, tmp_path)
    w = WORKLOADS[name]
    assert w.problems(out, w.tiny) == []
    edit_cell(out / PRIMARY_CSV[name], 0, "nan")
    assert w.problems(out, w.tiny)


@pytest.mark.parametrize("name", NAMES)
def test_edited_cell_in_a_repeat_run_counts_as_failed(name, tmp_path, monkeypatch):
    real = endtoend.run_cli
    calls = []

    def corrupting(kind, config, out, env, timeout):
        done = real(kind, config, out, env, timeout)
        calls.append(out)
        if len(calls) == 2:
            path = out / PRIMARY_CSV[name]
            last = path.read_text().splitlines()[1].split(",")[-1]
            edit_cell(path, 0, last[:-1] + ("1" if last[-1] != "1" else "2"))
        return done

    monkeypatch.setattr(endtoend, "run_cli", corrupting)
    w = WORKLOADS[name]
    m = endtoend.measure(w, 11, 0.0, w.tiny, SRC, tmp_path)
    assert m.attempted == 2
    assert len(m.problems) == 1 and "differ from the first run" in m.problems[0]


@pytest.mark.parametrize("name", NAMES)
def test_traced_layers_add_up_to_the_traced_wall(name, tmp_path):
    w = WORKLOADS[name]
    res = layers.measure(w, 11, 0.0, w.tiny, tmp_path)
    assert res["problems"] == [] and res["traced_runs"] == 1
    assert res["unwrapped"] == []
    m = res["metrics"]
    layered = sum(m[k] for k in layers.SELF_TIME) + m["kernels.weights_s"]
    assert layered == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["kernels.weights_s"] == pytest.approx(
        sum(m[f"kernels.weights_s.{f}"] for f in layers.FAMILIES), rel=1e-9)
    assert runner.simulate_particles is solvers.simulate_particles  # wrappers removed


def test_rate_min_counts_forward_solves(tmp_path):
    w = WORKLOADS["rate_min_ldp"]
    m = layers.measure(w, 11, 0.0, w.tiny, tmp_path)["metrics"]
    assert m["rates.iterations"] > 0
    assert m["rates.forward_solves"] == m["solvers.controlled_calls"] > m["rates.iterations"]
    assert m["kernels.weights_s.fbm"] == 0.0 and m["rng.draws"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] == layers.LAYER_METRICS


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clt_rough",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
