"""Golden outputs: pinned SHA-256 of the small-config CSV of every scenario.

The small config is the one the determinism criterion uses; the benchmark
configs are the se-sweep, ber-qpsk and conv-trace workloads of `perfbench/`
at seed 7.  A change to any of these hashes is a change to the program's
output and must be deliberate.
"""

import hashlib

import pytest

from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.experiments import run_experiment

SMALL = ["geometry.M=9", "users.K=4", "run.trials=5", "run.m_grid=[9, 12]",
         "run.bits_per_point=2048", "run.symbols_per_channel=64",
         "run.snr_grid_db=[0.0, 10.0]", "channel.vr_mu_frac=3.0"]

GOLDEN = {
    "flops": "861ee8cd45364d93a832e1200a76df8c93c6b9416cb6e8ae013dbd3ca8615b0a",
    "convergence": "aea629f02c237bda8c7a3d6b03e383f430ec507fd8f83cd3990725f15f37b20b",
    "se_vs_m": "0ac3a8eb5092cbeb0f85753bece4b8c2ef196e46043b0e1beecd9711e4eddad8",
    "ber": "8dddc70441023304c3556fbfad1dff8fa55543323e9d727b4d60ec6741e3af72",
    "convergence-t40": "daab916564874aff73aa19e477cbe94bfb781e179e5d4fd9578c5b4377cae5f1",
}

# A golden case is its experiment's small-config run; these cases add
# overrides.  At T_max = 40 the CG and Jac-PCG residuals vanish after 30 or
# more steps, and every converged column holds its iterate up to T_max.
CASES = {"convergence-t40": ("convergence", ("run.t_max=40",))}


def golden_case(name):
    """(experiment, extra overrides) of the golden case `name`."""
    return CASES.get(name, (name, ()))

# The benchmark workloads' overrides, copied from perfbench/xlbench/workloads.py
# (perfbench/ is not importable from the tier-1 suite).
BENCHMARK_CONFIGS = {
    "se-sweep": ("se_vs_m", ("power.snr_db=25", "run.trials=16")),
    "ber-qpsk": ("ber", ("run.bits_per_point=262144",)),
    "conv-trace": ("convergence", ("run.t_max=20", "run.trials=400")),
}

BENCHMARK_GOLDEN = {
    "se-sweep": "55974e0370028a74a407aeeb07576bee133b3db983a8264a38ef1d57d1bea94f",
    "ber-qpsk": "45fcccfa3521e1006d874c13dcc70ac4a7a4a99442c2d66064c124062855682e",
    "conv-trace": "243f56c820be7db5809d40d1e2077684fd624df1606361940c30a64e3fbfbb54",
}


def _run_bytes(path, experiment, overrides):
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *overrides])
    run_experiment(cfg, str(path))
    return path.read_bytes()


def _csv_bytes(path, experiment, *extra):
    return _run_bytes(path, experiment, [*SMALL, *extra])


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_sha256(tmp_path, case):
    experiment, extra = golden_case(case)
    csv = _csv_bytes(tmp_path / "out.csv", experiment, *extra)
    assert hashlib.sha256(csv).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("workload", sorted(BENCHMARK_GOLDEN))
def test_benchmark_config_sha256(tmp_path, workload):
    experiment, overrides = BENCHMARK_CONFIGS[workload]
    csv = _run_bytes(tmp_path / "out.csv", experiment,
                     [*overrides, "run.seed=7", "run.workers=1"])
    assert hashlib.sha256(csv).hexdigest() == BENCHMARK_GOLDEN[workload]


@pytest.mark.parametrize("experiment", ["se_vs_m", "ber", "convergence"])
def test_workers_give_identical_bytes(tmp_path, experiment):
    serial = _csv_bytes(tmp_path / "serial.csv", experiment, "run.workers=1")
    for workers in (2, 3):
        pooled = _csv_bytes(tmp_path / "pooled.csv", experiment,
                            f"run.workers={workers}")
        assert serial == pooled, workers
