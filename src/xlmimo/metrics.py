"""Link-level metrics: per-user SINR/SE, BER Monte Carlo, convergence traces.

The SINR of user k in group i combines the own-subarray and central-subarray
signal terms, intra-group interference through both, cross-group interference
through the central subarray only, and the noise floor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .linsolve import HpdSystem, solve
from .precoder import build_precoder, gram_regularized
from .scenario import build_scenario, draw_trial
from .seeding import seed_stream


@dataclass(frozen=True)
class LinkReport:
    gamma: np.ndarray        # (K,) per-user SINR
    se_per_user: np.ndarray  # (K,) log2(1 + gamma)
    sum_se: float


@dataclass(frozen=True)
class BerReport:
    snr_grid_db: np.ndarray
    ber: dict                # method -> (len(grid),) error rates
    bit_errors: dict         # method -> (len(grid),) integer counts
    bits_simulated: int      # per grid point


def coupling_matrix(realization, precoder) -> np.ndarray:
    """K x K effective gain matrix B with B[k, j] the gain from symbol j to user k."""
    K1 = realization.K1
    A1 = realization.H1.conj().T @ precoder.G1
    Ac = realization.Hc.conj().T @ precoder.Gc
    A2 = realization.H2.conj().T @ precoder.G2
    B = Ac.copy()
    B[:K1, :K1] += A1
    B[K1:, K1:] += A2
    return B


def sinr_eq9(realization, precoder, sigma2: float) -> LinkReport:
    """Per-user SINR from the block channel and block precoder."""
    if sigma2 <= 0:
        raise ConfigurationError(f"noise power must be positive, got {sigma2}")
    B = coupling_matrix(realization, precoder)
    diag = np.diag(B)
    signal = np.abs(diag) ** 2
    interference = np.sum(np.abs(B) ** 2, axis=1) - signal
    gamma = signal / (interference + sigma2)
    se = np.log2(1.0 + gamma)
    return LinkReport(gamma=gamma, se_per_user=se, sum_se=float(se.sum()))


def sum_se(per_trial_sums) -> tuple[float, float]:
    """Monte-Carlo mean of the per-trial sum SE and its standard error."""
    arr = np.asarray(per_trial_sums, dtype=float)
    if arr.size < 1:
        raise ConfigurationError("sum_se needs at least one trial")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, sem


# --- QPSK with Gray mapping ------------------------------------------------

def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Bit pairs (..., 2) -> unit-power symbols ((1-2b0) + j(1-2b1))/sqrt(2)."""
    bits = np.asarray(bits)
    return ((1.0 - 2.0 * bits[..., 0]) + 1j * (1.0 - 2.0 * bits[..., 1])) / np.sqrt(2.0)


def qpsk_detect(y: np.ndarray) -> np.ndarray:
    """Hard decisions back to bit pairs (..., 2)."""
    b0 = (y.real < 0).astype(np.int8)
    b1 = (y.imag < 0).astype(np.int8)
    return np.stack([b0, b1], axis=-1)


def ber_montecarlo(cfg, methods, snr_grid_db=None, seed=None) -> BerReport:
    """Downlink QPSK BER over the SNR grid, all methods on shared realizations.

    Per point: fresh channel draws, precoder with xi = 1/SNR, genie-aided
    scaling by the effective gain at the receiver, hard detection.  Bits,
    channels, and noise are shared across methods so comparisons are paired.
    """
    if isinstance(methods, str):
        methods = [methods]
    grid = np.asarray(cfg.run.snr_grid_db if snr_grid_db is None else snr_grid_db,
                      dtype=float)
    if grid.size == 0:
        raise ConfigurationError("SNR grid must be non-empty")
    bits_min = cfg.run.bits_per_point
    if bits_min < 1:
        raise ConfigurationError("bits per point must be >= 1")
    nsym = cfg.run.symbols_per_channel
    seed = cfg.run.seed if seed is None else seed
    scenario = build_scenario(cfg)
    sigma2 = cfg.power.sigma2_watts
    K = scenario.K
    sol = cfg.solver
    bits_per_draw = 2 * K * nsym
    draws = -(-bits_min // bits_per_draw)  # ceil: at least bits_min bits

    errors = {m: np.zeros(grid.size, dtype=np.int64) for m in methods}
    for ig, snr_db in enumerate(grid):
        snr = 10.0 ** (snr_db / 10.0)
        xi = 1.0 / snr
        power = sigma2 * snr
        for trial in range(draws):
            rng = seed_stream(seed, trial * grid.size + ig)
            draw = draw_trial(scenario, rng)
            precoders = {m: build_precoder(draw.realization, xi, power, m,
                                           sol.T, sol.omega, sol.pcg_variant)
                         for m in methods}
            bits = rng.integers(0, 2, size=(K, nsym, 2), dtype=np.int8)
            symbols = qpsk_modulate(bits)
            noise = np.sqrt(sigma2 / 2.0) * (
                rng.standard_normal((K, nsym))
                + 1j * rng.standard_normal((K, nsym)))
            for m in methods:
                B = coupling_matrix(draw.realization, precoders[m])
                gain = np.diag(B).copy()
                gain[gain == 0] = 1.0  # dead user: decisions become coin flips
                Y = B @ symbols + noise
                detected = qpsk_detect(Y / gain[:, None])
                errors[m][ig] += int(np.count_nonzero(detected != bits))
    bits_simulated = draws * bits_per_draw
    ber = {m: errors[m] / float(bits_simulated) for m in methods}
    return BerReport(snr_grid_db=grid, ber=ber, bit_errors=errors,
                     bits_simulated=bits_simulated)


def convergence_trace(cfg, methods=None, T_max: int | None = None,
                      seed=None, trials: int | None = None) -> dict:
    """Median least-square error ||P w^(t) - s||^2 / ||s||^2 per iteration.

    Solves the central-subarray system P_c w = s with a random QPSK symbol
    vector per trial; returns {method: array of length T_max + 1}.
    """
    methods = [m for m in (methods or cfg.run.methods) if m != "direct"]
    if not methods:
        raise ConfigurationError("convergence trace needs at least one iterative method")
    T_max = cfg.run.t_max if T_max is None else T_max
    if T_max < 1:
        raise ConfigurationError(f"T_max must be >= 1, got {T_max}")
    trials = cfg.run.trials if trials is None else trials
    seed = cfg.run.seed if seed is None else seed
    scenario = build_scenario(cfg)
    xi = cfg.power.xi

    traces = {m: np.empty((trials, T_max + 1)) for m in methods}
    for trial in range(trials):
        rng = seed_stream(seed, trial)
        draw = draw_trial(scenario, rng)
        P = gram_regularized(draw.realization.Hc, xi)
        bits = rng.integers(0, 2, size=(scenario.K, 2), dtype=np.int8)
        sys = HpdSystem(P=P, rhs=qpsk_modulate(bits))
        for m in methods:
            out = solve(sys, m, T_max, cfg.solver.omega, cfg.solver.pcg_variant)
            # Krylov methods stop once the residual is exactly zero; hold the
            # final error so every trace spans t = 0..T_max.
            tr = out.residual_trace
            traces[m][trial, :tr.size] = tr
            traces[m][trial, tr.size:] = tr[-1]
    return {m: np.median(traces[m], axis=0) for m in methods}


def se_trial(cfg, scenario, trial_index: int, methods, seed=None) -> dict:
    """One Monte-Carlo trial of sum SE for every method (paired draw)."""
    seed = cfg.run.seed if seed is None else seed
    rng = seed_stream(seed, trial_index)
    draw = draw_trial(scenario, rng)
    xi = cfg.power.xi
    power = cfg.power.tx_power_watts
    sigma2 = cfg.power.sigma2_watts
    sol = cfg.solver
    return {m: sinr_eq9(draw.realization,
                        build_precoder(draw.realization, xi, power, m, sol.T,
                                       sol.omega, sol.pcg_variant),
                        sigma2).sum_se
            for m in methods}
