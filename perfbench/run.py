#!/usr/bin/env python3
"""Benchmark of volterra-mv, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the real CLI as child processes for about S seconds and
prints the end-to-end metrics; ``--trace 1`` runs the same workload in process
with spans around every layer and prints the per-layer metrics.  The workload
seed goes into the config's ``run.seed``.  Every run's artifacts are checked.
The last line of standard output is the JSON result; the line before it is a
JSON record of the environment, the samples and the computed counts.  Exits
with code 2, printing no result, when the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}


def cap_blas_threads() -> None:
    """Cap each BLAS thread count at nproc.  Runs before numpy is imported,
    because OpenBLAS reads these variables once, when it loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    cap_blas_threads()
    sys.path[:0] = [str(HERE), str(SRC)]
    import machine
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if not (SRC / "volterra_mv" / "cli.py").is_file():
        print(f"error: no volterra_mv source under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sizes = workload.full
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "sizes": sizes,
              "environment": machine.environment(ROOT, SRC, args.seed)}
    try:
        if args.trace:
            import layers

            res = layers.measure(workload, args.seed, args.seconds, sizes, work,
                                 spans_path=WORK / f"spans-{workload.name}.csv")
            values = res["metrics"]
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.LAYER_METRICS}
            attempted, problems = res["attempted"], res["problems"]
            llc = machine.llc_bytes()
            record.update({
                "traced_runs": res["traced_runs"],
                "unwrapped_call_sites": res["unwrapped"],
                "computed": {
                    **{name: values[name] for name in layers.COMPUTED},
                    "working_set_mb": res["working_set_bytes"] / 1e6,
                    "llc_mb": llc / 1e6 if llc else None,
                },
                "spans_file": str((WORK / f"spans-{workload.name}.csv").relative_to(ROOT)),
            })
        else:
            import endtoend

            m = endtoend.measure(workload, args.seed, args.seconds, sizes, SRC, work)
            values = m.medians()
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            attempted, problems = m.attempted, m.problems
            record["samples"] = {name: {"n": len(v), "median": values[name], "values": v}
                                 for name, v in m.samples.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(problems)
    record.update({"fail_frac": failed / attempted, "problems": problems})
    for name, item in metrics.items():
        print(f"{workload.name:>13}  {name:<28} {item['value']:>14.6g} {item['unit']}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
