"""Regenerate ``perfbench/reference.json``: reference statistics for the checks.

    python3 perfbench/make_reference.py

Runs each scenario's workload config through the CLI for seeds 1000-1047
and records the mean and standard deviation across seeds of each checked
statistic (``xlbench.checks.statistics``): per CSV row, and paired with the
first method of its group.  A benchmark CSV passes when each statistic lies
within ``z`` standard deviations plus ``floor`` of the reference mean.
Rerun only when a change is meant to alter the simulated statistics.
"""

import csv
import json
import os
import sys
import tempfile
from pathlib import Path
from statistics import mean, stdev

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from xlbench import childenv, procs  # noqa: E402
from xlbench.checks import REFERENCE_STAT, statistics  # noqa: E402
from xlbench.workloads import WORKLOADS  # noqa: E402

Z = 8.0
# Absolute slack in the compared unit: SE in bit/s/Hz, BER (about three bit
# errors at 262144 bits per point), log10 LS error.
FLOOR = {"se_vs_m": 1e-9, "ber": 1e-5, "convergence": 1e-9}
SEED0 = 1000
SEEDS = 48


def main() -> int:
    env, _ = childenv.child_env(dict(os.environ), ROOT)
    by_scenario = {}
    for wl in WORKLOADS.values():
        if wl.workers == 1:
            by_scenario.setdefault(wl.scenario, wl)
    reference = {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as work:
        for scenario, wl in by_scenario.items():
            values = {"absolute": {}, "paired": {}}
            for seed in range(SEED0, SEED0 + SEEDS):
                out = os.path.join(work, "ref.csv")
                r = procs.launch(["run", *wl.cli_args(seed, out)], env, ROOT,
                                 os.path.join(work, "ref"))
                if r["rc"] != 0:
                    print(r["stderr_tail"], file=sys.stderr)
                    return 1
                with open(out, encoding="utf-8", newline="") as fh:
                    stats = statistics(scenario, list(csv.DictReader(fh)))
                for kind, by_key in stats.items():
                    for key, v in by_key.items():
                        values[kind].setdefault(key, []).append(v)
                print(f"{wl.name} seed {seed}: {r['wall_s']:.2f} s", flush=True)
            column, log = REFERENCE_STAT[scenario]
            reference[scenario] = {
                "workload": wl.name, "overrides": list(wl.overrides),
                "column": column, "log10": log, "z": Z, "floor": FLOOR[scenario],
                "seeds": [SEED0, SEED0 + SEEDS - 1],
                **{kind: {k: [mean(v), stdev(v)] for k, v in by_key.items()}
                   for kind, by_key in values.items()},
            }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
