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
    "convergence": "db28cf2b914ab673fa3e274e2e8c262cf95cd8f47f44fe6ec2c5c0b6e0cd7b6c",
    "se_vs_m": "3e089f17b587b18125a62d75e2de6e1e6572026c60e019673e3a11136cdfaad3",
    "ber": "582941e8c5d50b0707f5b781b8dfa1c212232c5e52c6a889a4e0aa9a91e73cf1",
}

# The benchmark workloads' overrides, copied from perfbench/xlbench/workloads.py
# (perfbench/ is not importable from the tier-1 suite).
BENCHMARK_CONFIGS = {
    "se-sweep": ("se_vs_m", ("power.snr_db=25", "run.trials=16")),
    "ber-qpsk": ("ber", ("run.bits_per_point=262144",)),
    "conv-trace": ("convergence", ("run.t_max=20", "run.trials=400")),
}

BENCHMARK_GOLDEN = {
    "se-sweep": "0caae5af32797d343a812af65366cdcdb5bbdb9f3d68f77a6234310b792fa1c1",
    "ber-qpsk": "2d33aa63f46cf0c4969d1205a0ae895ad081994a198aad52a151e2fb747c1a62",
    "conv-trace": "7c604a08e8e8b1247fd03131221b7980e57deafa0c10c04b84e63fd8c9e37c5b",
}


def _run_bytes(path, experiment, overrides):
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *overrides])
    run_experiment(cfg, str(path))
    return path.read_bytes()


def _csv_bytes(path, experiment, *extra):
    return _run_bytes(path, experiment, [*SMALL, *extra])


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_csv_sha256(tmp_path, experiment):
    csv = _csv_bytes(tmp_path / "out.csv", experiment)
    assert hashlib.sha256(csv).hexdigest() == GOLDEN[experiment]


@pytest.mark.parametrize("workload", sorted(BENCHMARK_GOLDEN))
def test_benchmark_config_sha256(tmp_path, workload):
    experiment, overrides = BENCHMARK_CONFIGS[workload]
    csv = _run_bytes(tmp_path / "out.csv", experiment,
                     [*overrides, "run.seed=7", "run.workers=1"])
    assert hashlib.sha256(csv).hexdigest() == BENCHMARK_GOLDEN[workload]


def test_workers_give_identical_bytes(tmp_path):
    serial = _csv_bytes(tmp_path / "serial.csv", "se_vs_m", "run.workers=1")
    pooled = _csv_bytes(tmp_path / "pooled.csv", "se_vs_m", "run.workers=2")
    assert serial == pooled
