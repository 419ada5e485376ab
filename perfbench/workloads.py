"""The benchmark workloads: configuration text, sizes and output checks.

Each workload is one ``volterra-mv <kind> --config <file>`` run.  The config
text is fixed here so that later changes can cite a workload by name; only
``run.seed`` comes from the benchmark's ``--seed``.  ``full`` sizes are the
benchmarked ones; ``tiny`` sizes exercise the same code paths in well under a
second and serve the smoke tests and the traced run's warm-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MODEL = """\
[model]
name = linear_mean_field
A = 1.0
B = 0.5
sigma0 = 1.0
{sigma1}xi = {xi}
"""

SIMULATE_CSV = """\
[experiment]
kind = simulate

""" + _MODEL.format(sigma1="", xi="1.0") + """
[kernel1]
family = constant
c = 1.0

[kernel2]
family = fbm
H = 0.7

[grid]
T = 1.0
n_steps = {n_steps}

[run]
N = {N}
seed = {seed}
eps = 0.01
p_list = [2, 4]

[output]
ensemble_csv = true
"""

CLT_EPS = (1e-1, 1e-2, 1e-3, 1e-4)

CLT_ROUGH = """\
[experiment]
kind = clt

""" + _MODEL.format(sigma1="sigma1 = 0.5\n", xi="1.0") + """
[kernel1]
family = power
H = 0.3

[kernel2]
family = fbm
H = 0.3

[grid]
T = 1.0
n_steps = {n_steps}

[run]
N = {N}
seed = {seed}
eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
p_list = [2, 4]
"""

RATE_MIN_LDP = """\
[experiment]
kind = rate-min

""" + _MODEL.format(sigma1="sigma1 = 0.5\n", xi="0.0") + """
[kernel1]
family = constant
c = 1.0

[kernel2]
family = constant
c = 1.0

[grid]
T = 1.0
n_steps = {n_steps}

[rate]
mode = ldp
event_normal = [1.0]
event_level = 1.0

[run]
seed = {seed}
"""

# minimize_rate_endpoint's rate for RATE_MIN_LDP, keyed by n_steps, recorded
# from the library at the commit that introduced this benchmark
REFERENCE_RATE = {100: 0.12160445264927537, 20: 0.13128465948145476}
RATE_RTOL = 1e-6
EVENT_LEVEL = 1.0


def _read_csv(path: Path, header: list) -> np.ndarray:
    with open(path) as fh:
        got = fh.readline().rstrip("\n").split(",")
        if got != header:
            raise ValueError(f"{path.name}: header {got} != {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_simulate(out: Path, sizes: dict) -> list:
    """ensemble.csv holds N*(n+1) rows whose per-step means match summary.csv."""
    n, big_n = sizes["n_steps"], sizes["N"]
    ens = _read_csv(out / "ensemble.csv", ["particle", "step", "t", "x1"])
    summ = _read_csv(out / "summary.csv",
                     ["t", "mean_x1", "var_x1", "moment_p2", "moment_p4"])
    if ens.shape != (big_n * (n + 1), 4):
        return [f"ensemble.csv has shape {ens.shape}, want {(big_n * (n + 1), 4)}"]
    if summ.shape != (n + 1, 5):
        return [f"summary.csv has shape {summ.shape}, want {(n + 1, 5)}"]
    problems = []
    if not (np.array_equal(ens[:, 0], np.repeat(np.arange(big_n), n + 1))
            and np.array_equal(ens[:, 1], np.tile(np.arange(n + 1), big_n))):
        problems.append("ensemble.csv particle/step columns are not the full grid")
    if not np.array_equal(ens[:, 2].reshape(big_n, n + 1), np.broadcast_to(summ[:, 0], (big_n, n + 1))):
        problems.append("ensemble.csv times differ from summary.csv times")
    mean = ens[:, 3].reshape(big_n, n + 1).mean(axis=0)
    if not np.allclose(mean, summ[:, 1], rtol=1e-12, atol=1e-12 * float(np.abs(summ[:, 1]).max())):
        worst = float(np.max(np.abs(mean - summ[:, 1])))
        problems.append(f"per-step ensemble means differ from summary.csv by up to {worst:.3e}")
    return problems


def check_clt(out: Path, sizes: dict) -> list:
    """Four finite rows, one per eps, with gap_p2 ~ eps (log-log slope 1 +- 0.2)."""
    rows = _read_csv(out / "clt.csv", ["eps", "gap_p2", "stderr_p2", "gap_p4", "stderr_p4"])
    if rows.shape != (len(CLT_EPS), 5):
        return [f"clt.csv has shape {rows.shape}, want {(len(CLT_EPS), 5)}"]
    if not np.all(np.isfinite(rows)):
        return ["clt.csv holds non-finite values"]
    if not np.allclose(rows[:, 0], sorted(CLT_EPS), rtol=1e-15):
        return [f"clt.csv eps column is {rows[:, 0].tolist()}"]
    if np.any(rows[:, 1] <= 0.0):
        return ["clt.csv holds a non-positive gap_p2"]
    slope = float(np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0])
    if abs(slope - 1.0) > 0.2:
        return [f"gap_p2 log-log slope {slope:.4f} is outside 1 +- 0.2"]
    return []


def check_rate(out: Path, sizes: dict) -> list:
    """The minimizer attains the event, at the recorded reference rate."""
    summary = {}
    for line in (out / "summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key.strip()] = value.strip()
    control = _read_csv(out / "control.csv", ["t", "v1"])
    problems = []
    if control.shape != (sizes["n_steps"], 2) or not np.all(np.isfinite(control)):
        problems.append(f"control.csv has shape {control.shape} or non-finite values")
    if summary.get("attained") != "true":
        problems.append(f"attained = {summary.get('attained')}")
    terminal = float(summary.get("terminal_value", "nan"))
    if not terminal >= EVENT_LEVEL:
        problems.append(f"terminal_value {terminal!r} < {EVENT_LEVEL}")
    rate = float(summary.get("rate", "nan"))
    ref = REFERENCE_RATE[sizes["n_steps"]]
    if not abs(rate - ref) <= RATE_RTOL * ref:
        problems.append(f"rate {rate!r} differs from the reference {ref!r} by more than {RATE_RTOL:g} relative")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    template: str
    full: dict
    tiny: dict
    check: object  # (out_dir, sizes) -> list of problems

    def config_text(self, seed: int, sizes: dict) -> str:
        return self.template.format(seed=seed, **sizes)

    def problems(self, out: Path, sizes: dict) -> list:
        """Output-check failures of one run; an unreadable artifact is one too."""
        try:
            return self.check(out, sizes)
        except (OSError, ValueError) as exc:
            return [f"{type(exc).__name__}: {exc}"]


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate_csv", "simulate", SIMULATE_CSV,
                 full={"N": 5000, "n_steps": 200}, tiny={"N": 50, "n_steps": 20},
                 check=check_simulate),
        Workload("clt_rough", "clt", CLT_ROUGH,
                 full={"N": 2000, "n_steps": 400}, tiny={"N": 200, "n_steps": 40},
                 check=check_clt),
        Workload("rate_min_ldp", "rate-min", RATE_MIN_LDP,
                 full={"n_steps": 100}, tiny={"n_steps": 20},
                 check=check_rate),
    )
}


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class RunCheck:
    """Checks the runs of one workload and seed: the output checks, and CSV
    bytes identical to those of the first run that exited cleanly.  Identical
    artifacts give identical check results, so a run whose artifacts all match
    an already checked run reuses that run's verdict."""

    def __init__(self, workload: Workload, sizes: dict):
        self.workload = workload
        self.sizes = sizes
        self.reference = None
        self.verdicts = {}

    def problems(self, out: Path, returncode: int) -> list:
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            files = digests(out)
        except OSError as exc:
            return [f"{type(exc).__name__}: {exc}"]
        key = tuple(files.items())
        if key not in self.verdicts:
            self.verdicts[key] = self.workload.problems(out, self.sizes)
        reasons = list(self.verdicts[key])
        csvs = {name: h for name, h in files.items() if name.endswith(".csv")}
        if self.reference is None:
            self.reference = csvs
        elif csvs != self.reference:
            reasons.append("CSV bytes differ from the first run with the same seed")
        return reasons


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def artifact_rows(out: Path) -> int:
    """Data rows over all CSV artifacts (header lines excluded)."""
    rows = 0
    for p in out.glob("*.csv"):
        with open(p, "rb") as fh:
            rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    return rows
