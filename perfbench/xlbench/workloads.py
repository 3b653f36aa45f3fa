"""The four benchmark workloads: one xlmimo CLI scenario each, fixed sizes.

A workload's seed is the benchmark's ``--seed``; everything else the CLI
needs is fixed here.  Sizes are chosen so one CLI launch takes 2-13 s on a
2-core host, which fits several launches in one measuring window.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str         # CLI subcommand
    overrides: tuple      # --set SECTION.KEY=VALUE items
    workers: int
    why: str
    # Worker count of a twin launch made once per run, before measuring:
    # the same config and seed must give the same CSV bytes.
    twin_workers: int | None = None

    def cli_args(self, seed: int, out: str) -> list:
        args = [self.scenario]
        for item in self.overrides:
            args += ["--set", item]
        return args + ["--seed", str(seed), "--workers", str(self.workers),
                       "--out", out]


# run.trials=16 is the smallest count for which both workers of se-sweep-par
# get work: the experiment maps trials onto the pool in chunks of 8.
_SE = ("power.snr_db=25", "run.trials=16")

WORKLOADS = {w.name: w for w in (
    Workload("se-sweep", "se_vs_m", _SE, 1,
             "se_vs_m over the full m_grid, five methods, serial: channel "
             "draw, Gram build, multi-RHS precoders and SINR grow with M; a "
             "--workers 2 launch per run must give the same CSV bytes", 2),
    Workload("se-sweep-par", "se_vs_m", _SE, 2,
             "same config and seed as se-sweep with --workers 2: the only "
             "workload that runs the process pool and BLAS oversubscription", 1),
    Workload("ber-qpsk", "ber", ("run.bits_per_point=262144",), 1,
             "QPSK BER over the SNR grid at M=99: bit/noise RNG, B @ symbols "
             "and detection dominate; precoders are small"),
    Workload("conv-trace", "convergence", ("run.t_max=20", "run.trials=400"), 1,
             "single-RHS solver loops with the per-iteration LS-error trace; "
             "builds no precoder and no SINR"),
)}


def trial_count(cfg: dict) -> int:
    """Monte-Carlo channel realizations one CLI run completes, from its config.

    se_vs_m: |m_grid| * trials; ber: draws per SNR point summed over points;
    convergence: trials.  ``cfg`` is the resolved config as a nested dict.
    """
    run = cfg["run"]
    experiment = run["experiment"]
    if experiment == "se_vs_m":
        return len(run["m_grid"]) * run["trials"]
    if experiment == "ber":
        bits_per_draw = 2 * cfg["users"]["K"] * run["symbols_per_channel"]
        draws = -(-run["bits_per_point"] // bits_per_draw)
        return len(run["snr_grid_db"]) * draws
    if experiment == "convergence":
        return run["trials"]
    raise ValueError(f"no trial count for experiment {experiment!r}")
