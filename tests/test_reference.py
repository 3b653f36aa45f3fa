"""The benchmark configs agree with the statistical reference in tier-1.

`perfbench/reference.json` holds each benchmark config's per-row mean and
SD over 48 seeds; `xlbench.checks.check_csv` flags a row value, a paired
difference between methods or its grid mean outside 8 SD plus a floor.
Unlike a golden hash this check holds on any BLAS kernel, and it still
checks a deliberately re-pinned CSV.  It adds to the hashes: a defect whose
effect lies within the tolerance passes it.
"""

import json
import sys
from pathlib import Path

import pytest

from xlmimo.config import ExperimentConfig, apply_overrides, config_to_dict
from xlmimo.experiments import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))

from xlbench.checks import check_csv  # noqa: E402
from xlbench.workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["se-sweep", "ber-qpsk", "conv-trace"])
def test_benchmark_config_within_reference(workload, seed, tmp_path):
    w = WORKLOADS[workload]
    cfg = ExperimentConfig()
    apply_overrides(cfg, [*w.overrides, f"run.experiment={w.scenario}",
                          f"run.seed={seed}"])
    out = run_experiment(cfg, str(tmp_path / f"{w.scenario}.csv"))
    assert check_csv(out, config_to_dict(cfg), REFERENCE) == []
