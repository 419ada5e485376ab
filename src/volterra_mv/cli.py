"""Command-line entry point.

    volterra-mv <subcommand> --config <file> [--out <dir>] [--workers k] [--seed s]

Subcommands mirror the experiment kinds; the subcommand always wins over the
config's experiment.kind (a mismatch is a validation error).  Exit codes:
0 success, 1 validation failure, 2 runtime failure (an output directory or
artifact that cannot be written among them), 3 memory-budget refusal.
"""

from __future__ import annotations

import argparse
import sys

from .config import validate_config
from .errors import BudgetError, ConfigError, VolterraError
from .runner import EXPERIMENT_KINDS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra-mv",
        description="Simulators and rate-functional tools for kernel-weighted "
                    "mean-field dynamics with small noise.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="experiment configuration file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--workers", type=int, default=None,
                        help="worker count (overrides config and environment)")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def _apply_overrides(text: str, kind: str, seed: int | None) -> str:
    """Overrides are appended as configuration text so the manifest records them."""
    extra = []
    if seed is not None:
        extra.append(f"[run]\nseed = {seed}\n")
    extra.append(f"[experiment]\nkind = {kind}\n")
    return text + "\n" + "\n".join(extra)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    out = args.out
    try:
        from .config import parse_flat

        declared, _ = parse_flat(text)
        declared_kind = declared.get("experiment", {}).get("kind")
        if declared_kind is not None and declared_kind != args.subcommand:
            raise ConfigError([
                f"experiment.kind: config says \"{declared_kind}\" but the"
                f" subcommand is \"{args.subcommand}\""
            ])
        cfg = validate_config(_apply_overrides(text, args.subcommand, args.seed))
        out = out or cfg.out_dir
        result = run_experiment(cfg, out_dir=args.out, workers=args.workers)
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget guard: {exc}", file=sys.stderr)
        return 3
    except VolterraError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the run leaves no partial output behind
        print(f"runtime error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    print(result.out_dir)
    for name in result.artifacts:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
