"""Golden outputs: pinned SHA-256 of the small-config CSV of every scenario.

The config is the one the determinism criterion uses.  A change to any of
these hashes is a change to the program's output and must be deliberate.
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


def _csv_bytes(path, experiment, *extra):
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *SMALL, *extra])
    run_experiment(cfg, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_csv_sha256(tmp_path, experiment):
    csv = _csv_bytes(tmp_path / "out.csv", experiment)
    assert hashlib.sha256(csv).hexdigest() == GOLDEN[experiment]


def test_workers_give_identical_bytes(tmp_path):
    serial = _csv_bytes(tmp_path / "serial.csv", "se_vs_m", "run.workers=1")
    pooled = _csv_bytes(tmp_path / "pooled.csv", "se_vs_m", "run.workers=2")
    assert serial == pooled
