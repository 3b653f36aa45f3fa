"""Command-line interface: `xlmimo EXPERIMENT`, with flags before or after it."""

import argparse
import gc
import json
import os
import sys

from .config import ExperimentConfig, apply_overrides, read_config
from .errors import XlMimoError
from .experiments import TABLES, run_experiment

DEFAULT_OUT_ENV = "XLMIMO_OUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlmimo",
        description="XL-MIMO RZF precoding experiments "
                    "(convergence, SE vs M, BER, flop model)")
    parser.add_argument("experiment", choices=TABLES,
                        help="the scenario to run")
    parser.add_argument("--config", help="YAML config file (defaults are built in)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config value")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--workers", type=int, help="override run.workers")
    return parser


def _resolve_out(args) -> str:
    if args.out:
        return args.out
    base = os.environ.get(DEFAULT_OUT_ENV, ".")
    return os.path.join(base, f"{args.experiment}.csv")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The heap so far, mostly numpy's and yaml's module graphs, lives until
    # exit.  Frozen, the collector skips it in the run and in the collection
    # at interpreter exit, which otherwise takes about a tenth of a short
    # run.  Once per process: a later call in the same process keeps it.
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        # Validated once, by the overrides, with the file and flags applied.
        cfg = read_config(args.config) if args.config else ExperimentConfig()
        overrides = list(args.overrides)
        overrides.append(f"run.experiment={args.experiment}")
        if args.seed is not None:
            overrides.append(f"run.seed={args.seed}")
        if args.workers is not None:
            overrides.append(f"run.workers={args.workers}")
        apply_overrides(cfg, overrides)
        out = run_experiment(cfg, _resolve_out(args))
    except XlMimoError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
