"""Experiment orchestration: figure scenarios, CSV emission, run manifests.

Each scenario writes one UTF-8 CSV with a fixed header and a JSON manifest
sidecar recording config, seed, code version and the numerical environment
(Python and numpy versions, the BLAS build numpy links, BLAS thread
variables, CPU count).  The Monte-Carlo scenarios run on the batch driver
`metrics.monte_carlo`, trial t drawn from the stream (SE_VS_M, M, t),
(BER, SNR-grid index, t) or (CONVERGENCE, t) of the seed.  (config, seed)
determines every output byte except the manifest's timestamp, timing and
environment entries, whatever the worker count or batching.
"""

import csv
import datetime
import json
import os
import platform
from time import perf_counter

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .config import ExperimentConfig, config_to_dict
from .errors import ConfigurationError
from .flops import K_GRID, flop_model
from .metrics import (ber_montecarlo, convergence_trace, iterative_methods,
                      se_montecarlo, sum_se)

TRUNCATION_MARKER = "__truncated__"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def rows_flops(cfg: ExperimentConfig):
    T = cfg.solver.T
    for K in K_GRID:
        for method in cfg.run.methods:
            model = flop_model(method, K, T)
            yield [method, K, T, model.init_flops, model.per_iter_flops,
                   model.total_flops]


def rows_convergence(cfg: ExperimentConfig):
    traces = convergence_trace(cfg)
    for method, trace in traces.items():
        for t, err in enumerate(trace):
            yield [method, t, err, cfg.run.trials]


def rows_se_vs_m(cfg: ExperimentConfig):
    for M, sums in se_montecarlo(cfg):
        for method in cfg.run.methods:
            mean, sem = sum_se(sums[method])
            yield [M, method, mean, sem, cfg.run.trials]


def rows_ber(cfg: ExperimentConfig):
    report = ber_montecarlo(cfg)
    for ig, snr_db in enumerate(report.snr_grid_db):
        for method in cfg.run.methods:
            yield [snr_db, method, report.ber[method][ig],
                   int(report.bit_errors[method][ig]), report.bits_simulated]


# experiment -> (CSV header, row generator)
TABLES = {
    "flops": (["method", "K", "T", "init_flops", "per_iter_flops",
               "total_flops"], rows_flops),
    "convergence": (["method", "t", "median_ls_error", "trials"],
                    rows_convergence),
    "se_vs_m": (["M", "method", "mean_sum_se", "sem", "trials"], rows_se_vs_m),
    "ber": (["snr_db", "method", "ber", "bit_errors", "bits"], rows_ber),
}


def run_experiment(cfg: ExperimentConfig, out_path: str) -> str:
    """Run the configured scenario, write CSV + manifest, return the CSV path."""
    experiment = cfg.run.experiment
    if experiment not in TABLES:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    if experiment == "convergence":
        iterative_methods(cfg)  # reject direct alone before the CSV exists
    columns, rows = TABLES[experiment]
    started = perf_counter()
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigurationError(f"cannot write CSV {out_path!r}: {exc}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        try:
            for row in rows(cfg):
                writer.writerow([_fmt(v) for v in row])
        except Exception as exc:
            # Flush what we have with an explicit truncation marker row.
            writer.writerow([TRUNCATION_MARKER, type(exc).__name__]
                            + [""] * (len(columns) - 2))
            fh.flush()
            raise
    elapsed = perf_counter() - started
    _write_manifest(cfg, out_path, elapsed)
    return out_path


def _blas_build() -> dict:
    """Name and version of the BLAS that numpy was built against.

    Every solve and product rounds in that BLAS (and its LAPACK), so the
    manifest records it next to numpy's version.
    """
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_manifest(cfg: ExperimentConfig, out_path: str, elapsed: float) -> None:
    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.run.seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_seconds": elapsed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_builds": {"numpy": _blas_build()},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "cpu_count": os.cpu_count(),
        },
        "output": out_path,
    }
    path = out_path + ".manifest.json"
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write manifest {path!r}: {exc}") from exc
    with fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
