"""End-to-end measurement: the real CLI as a child process, plus set-up probes.

Every run is ``python -m volterra_mv.cli <kind> --config <file> --workers 1``
(the console script ``volterra-mv`` calls the same ``main``), launched one at
a time from this process, which is the only driver.  A run fails on a nonzero
exit, a failed output check, or CSV bytes that differ from the first run with
the same seed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import RunCheck, Workload, artifact_bytes

SETUP_REPEATS = 5
MIN_RUNS = 2              # so that every invocation compares same-seed bytes
RUN_TIMEOUT_S = 60.0
DEADLINE_S = 150.0        # no run starts that is expected to end past this

# a fresh interpreter imports the library from the checkout and validates the
# workload config without running it
SETUP_CODE = """\
import sys
import volterra_mv
from volterra_mv.config import validate_config
if not volterra_mv.__file__.startswith(sys.argv[2]):
    raise SystemExit("volterra_mv imported from " + volterra_mv.__file__)
with open(sys.argv[1]) as fh:
    validate_config(fh.read())
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def setup_probe(config: Path, env: dict, src: Path) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config), str(src)],
                          env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return elapsed


@dataclass
class CliRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    log: str


def run_cli(kind: str, config: Path, out: Path, env: dict, timeout: float) -> CliRun:
    """One CLI run; wall time spans launch to exit, after the artifacts are promoted."""
    log = out.with_suffix(".log")
    cmd = [sys.executable, "-m", "volterra_mv.cli", kind, "--config", str(config),
           "--out", str(out), "--workers", "1"]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=out.parent, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(wall_s=wall, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
                  returncode=proc.returncode, log=log.read_text(errors="replace")[-2000:])


@dataclass
class Measurement:
    samples: dict = field(default_factory=lambda: {"wall_s": [], "setup_s": [],
                                                   "peak_rss_mb": [], "artifact_mb": []})
    attempted: int = 0
    problems: list = field(default_factory=list)   # one entry per failed run

    def medians(self) -> dict:
        return {k: statistics.median(v) if v else 0.0 for k, v in self.samples.items()}


def measure(workload: Workload, seed: int, seconds: float, sizes: dict,
            src: Path, work: Path) -> Measurement:
    """Set-up probes, then CLI runs until ``seconds`` have passed."""
    begin = time.perf_counter()
    config = work / "config.ini"
    config.write_text(workload.config_text(seed, sizes))
    env = child_env(src)
    m = Measurement()
    m.samples["setup_s"] = [setup_probe(config, env, src) for _ in range(SETUP_REPEATS)]

    check = RunCheck(workload, sizes)
    start = time.perf_counter()
    while True:
        out = work / f"run{m.attempted}"
        timeout = min(RUN_TIMEOUT_S, max(1.0, DEADLINE_S + 20.0 - (time.perf_counter() - begin)))
        run = run_cli(workload.kind, config, out, env, timeout)
        m.attempted += 1
        m.samples["wall_s"].append(run.wall_s)
        m.samples["peak_rss_mb"].append(run.peak_rss_mb)
        reasons = check.problems(out, run.returncode)
        if run.returncode == 0 and out.is_dir():
            m.samples["artifact_mb"].append(artifact_bytes(out) / 1e6)
        else:
            reasons.append(run.log.strip())
        if reasons:
            m.problems.append(f"run {m.attempted}: " + "; ".join(reasons))
        shutil.rmtree(out, ignore_errors=True)

        now = time.perf_counter()
        if m.attempted >= MIN_RUNS and now - start >= seconds:
            break
        if now - begin + (now - start) / m.attempted > DEADLINE_S:
            break
    return m
