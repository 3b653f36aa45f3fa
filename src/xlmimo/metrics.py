"""Link-level metrics: per-user SINR/SE, BER Monte Carlo, convergence traces.

The SINR of user k in group i combines the own-subarray and central-subarray
signal terms, intra-group interference through both, cross-group interference
through the central subarray only, and the noise floor.

The three Monte-Carlo pipelines check their config with `config.validate`
on entry, as the CLI does, and run on one batch driver, `monte_carlo`.
Trial t of a grid point draws from `seed_stream(run.seed, *key, t)`, keyed
(SE_VS_M, M), (BER, SNR-grid index) or (CONVERGENCE,).  A batch is drawn
with one `scenario.draw_batch` call, each trial from its own stream, and a
pipeline's kernel gets the stacked draws and makes one precoder pass
(`precoder.precode_each`) per batch.  A batch holds what `BATCH_BYTES`
holds of the trials' working set, so memory stays bounded as M and K grow.
"""

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .config import PowerConfig, validate
from .errors import ConfigurationError
from .linsolve import HpdSystem, solve
from .precoder import gram_regularized, precode_each
from .scenario import build_scenario, draw_batch
from .seeding import BER, CONVERGENCE, SE_VS_M, seed_stream

BATCH_BYTES = 3 << 19
"""Working memory one batched kernel call may hold, in bytes (1.5 MiB).

Trials per batch are this over one trial's working set, which counts
the draw and the precoders, or the convergence solves' iterates.  BER's
QPSK chain, 54 bytes per user and symbol (864 KiB at K = 32 and 512
symbols, growing with `run.symbols_per_channel`), lies outside it, so a
BER batch may exceed it: at M = 99 one batch peaks under tracemalloc at
1405 KiB at the ber-qpsk settings and 3577 KiB with 2048 symbols.
Larger batches save little more time and add to peak memory: the
benchmark's `peak_rss_mb` has a 5% bound, about 3 MB."""


def trial_batches(trials: int, trial_bytes: int) -> list:
    """Trial indices 0..trials-1 as consecutive ranges of near-equal length.

    Each range holds at most max(1, BATCH_BYTES // trial_bytes) trials.
    """
    size = max(1, BATCH_BYTES // trial_bytes)
    count = -(-trials // size)
    return [range(i * trials // count, (i + 1) * trials // count)
            for i in range(count)]


def precoding_bytes(scenario) -> int:
    """One trial's working set: its draw's (K, M) rows, complex and real,
    2 M K complex entries (32 M K bytes), which bound the channel blocks and
    the stacked copy of the side blocks that precoding keeps after them,
    and about eight K x K arrays.  After the Gram, precoding holds only
    K x K arrays: the shared Grams, each size class's system and Gram less
    xi I, one solve's, and one method's coupling blocks.  BER's QPSK chain,
    run trial by trial after the precoders, is not counted."""
    M, K = scenario.geometry.M, scenario.K
    return 16 * (2 * M * K + 8 * K * K)


def monte_carlo(cfg, kernel, points, trials: int):
    """Yield, per grid point in order, `kernel`'s outputs on trials
    0..trials-1 of the point, concatenated in trial order.

    A point is (scenario, key, arg, trial_bytes); its trials split into
    `trial_batches(trials, trial_bytes)`.  Per batch, `kernel(cfg, real,
    rngs, arg)` gets the stacked draws and each trial's stream, past its
    draw, and returns a dict of arrays over the batch.  Batches run serially
    or on one pool of at most `run.workers` processes, with the same bytes.
    The pool pickles the kernel by name: a module-level function that no
    tracer swaps."""
    per_point = [trial_batches(trials, trial_bytes)
                 for *_, trial_bytes in points]
    jobs = [(kernel, cfg, scenario, key, batch, arg)
            for (scenario, key, arg, _), batches in zip(points, per_point)
            for batch in batches]
    workers = min(cfg.run.workers, len(jobs))
    with _pool(workers) if workers > 1 else nullcontext() as pool:
        outputs = (pool.map if pool else map)(_run_batch, jobs)
        for batches in per_point:
            outs = [next(outputs) for _ in batches]
            yield {name: np.concatenate([o[name] for o in outs])
                   for name in outs[0]}


def _pool(workers: int):
    """A process pool, imported only here: a serial run never loads it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _run_batch(job):
    """Draw one batch of trials and apply the kernel to it."""
    kernel, cfg, scenario, key, trials, arg = job
    rngs = [seed_stream(cfg.run.seed, *key, t) for t in trials]
    return kernel(cfg, draw_batch(scenario, rngs).realization, rngs, arg)


@dataclass(frozen=True)
class LinkReport:
    gamma: np.ndarray        # (..., K) per-user SINR
    sum_se: np.ndarray       # (...) per trial, the sum of log2(1 + gamma)


@dataclass(frozen=True)
class BerReport:
    snr_grid_db: np.ndarray
    ber: dict                # method -> (len(grid),) error rates
    bit_errors: dict         # method -> (len(grid),) integer counts
    bits_simulated: int      # per grid point


def coupling_matrix(realization, precoder) -> np.ndarray:
    """(..., K, K) gain matrices B: B[k, j] is the gain from symbol j to user k.

    B adds the precoder's coupling blocks H_i^H G_i: the central one over
    every user, each side one over its group's users.
    """
    K1 = realization.K1
    B = precoder.Cc.copy()
    B[..., :K1, :K1] += precoder.C1
    B[..., K1:, K1:] += precoder.C2
    return B


def sinr_eq9(realization, precoder, sigma2: float) -> LinkReport:
    """Per-user SINR from the block channel and block precoder, per trial."""
    if not 0 < sigma2 < np.inf:
        raise ConfigurationError(f"sigma2 must be positive and finite, got {sigma2}")
    B = coupling_matrix(realization, precoder)
    signal = np.abs(np.diagonal(B, axis1=-2, axis2=-1)) ** 2
    interference = np.sum(np.abs(B) ** 2, axis=-1) - signal
    gamma = signal / (interference + sigma2)
    return LinkReport(gamma=gamma, sum_se=np.log2(1.0 + gamma).sum(axis=-1))


def sum_se(per_trial_sums) -> tuple[float, float]:
    """Monte-Carlo mean of the per-trial sum SE and its standard error."""
    arr = np.asarray(per_trial_sums, dtype=float)
    if arr.size < 1:
        raise ConfigurationError("sum_se needs at least one trial")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, sem


# --- QPSK with Gray mapping ------------------------------------------------

# Re and Im of every symbol of the formula below are +-_QPSK_LEVEL: the
# formula's 1/sqrt(2), as numpy's complex division by sqrt(2) rounds it.
_QPSK_LEVEL = ((1.0 + 1j) / np.sqrt(2.0)).real


def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Bit pairs (..., 2) -> unit-power symbols ((1-2b0) + j(1-2b1))/sqrt(2).

    Each bit b becomes one float of its symbol, _QPSK_LEVEL - 2 _QPSK_LEVEL b,
    which is exact for b in {0, 1}.
    """
    bits = np.asarray(bits)
    symbols = np.empty(bits.shape[:-1], dtype=complex)
    levels = symbols.reshape(-1).view(float).reshape(bits.shape)
    np.multiply(bits, -2.0 * _QPSK_LEVEL, out=levels)
    levels += _QPSK_LEVEL
    return symbols


def qpsk_detect(y: np.ndarray) -> np.ndarray:
    """Hard decisions back to bit pairs (..., 2): the signs of Re y and Im y.

    A C-contiguous complex `y` is read in place, as (..., 2) floats.
    """
    y = np.asarray(y, dtype=complex, order="C")
    return (y.reshape(-1).view(float).reshape(*y.shape, 2) < 0).view(np.int8)


def ber_montecarlo(cfg) -> BerReport:
    """Downlink QPSK BER over `run.snr_grid_db`, all of `run.methods` on
    shared realizations.

    Per point: fresh channel draws, precoder with xi = 1/SNR, genie-aided
    scaling by the effective gain at the receiver, hard detection.  Bits,
    channels, and noise are shared across methods so comparisons are paired.
    """
    validate(cfg)
    grid = np.asarray(cfg.run.snr_grid_db, dtype=float)
    scenario = build_scenario(cfg)
    bits_per_draw = 2 * scenario.K * cfg.run.symbols_per_channel
    draws = -(-cfg.run.bits_per_point // bits_per_draw)  # ceil
    points = [(scenario, (BER, ig), snr_db, precoding_bytes(scenario))
              for ig, snr_db in enumerate(grid)]
    counts = list(monte_carlo(cfg, _ber_kernel, points, draws))
    errors = {m: np.array([c[m].sum() for c in counts], dtype=np.int64)
              for m in cfg.run.methods}
    bits_simulated = draws * bits_per_draw
    ber = {m: errors[m] / float(bits_simulated) for m in cfg.run.methods}
    return BerReport(snr_grid_db=grid, ber=ber, bit_errors=errors,
                     bits_simulated=bits_simulated)


def _ber_kernel(cfg, real, rngs, snr_db) -> dict:
    """Bit errors of each trial of the batch, per method, at `snr_db`.

    Detection is genie-aided: user k's decisions are the signs of Re and Im
    of y conj(g_k), g_k = B[k, k].  In exact arithmetic they are those of
    y / g_k, since |g_k|^2 > 0; after rounding they may differ only where
    Re or Im of y conj(g_k) lies within an ulp or so of zero, so byte
    identity with the division is checked on the benchmark's configs, not
    proved.  A dead user (g_k = 0) decides on y itself, a coin flip.
    """
    power, sol = PowerConfig(snr_db=snr_db), cfg.solver
    K, nsym = real.K, cfg.run.symbols_per_channel
    couplings = precode_each(real, power.xi, power.tx_power_watts,
                             cfg.run.methods, sol.T, sol.omega,
                             lambda pre: coupling_matrix(real, pre))
    errors = {m: np.zeros(len(rngs), dtype=np.int64) for m in couplings}
    # conj(g) per trial and user, (batch, K, 1); a dead user's g = 0 is 1.
    gains = {m: np.diagonal(B, axis1=-2, axis2=-1).conj()[..., None]
             for m, B in couplings.items()}
    for g in gains.values():
        g[g == 0] = 1.0
    # Bits and noise follow each trial's channel on its stream, trial by
    # trial: stacked over the batch, the chain adds memory and saves no time.
    # The noise and every method's received block Y are formed in two
    # workspaces for the batch.  A trial's symbols are formed after its
    # noise, so the draw's standard normals are gone by then; its bits and
    # symbols are released before the next trial's are drawn.
    noise, Y = np.empty((2, K, nsym), dtype=complex)
    for i, rng in enumerate(rngs):
        bits = rng.integers(0, 2, size=(K, nsym, 2), dtype=np.int8)
        noise.real = rng.standard_normal((K, nsym))
        noise.imag = rng.standard_normal((K, nsym))
        noise *= np.sqrt(power.sigma2_watts / 2.0)
        symbols = qpsk_modulate(bits)
        for m, B in couplings.items():
            np.matmul(B[i], symbols, out=Y)
            Y += noise
            Y *= gains[m][i]
            errors[m][i] = np.count_nonzero(qpsk_detect(Y) != bits)
        del bits, symbols
    return errors


def iterative_methods(cfg) -> list:
    """The methods of `run.methods` a convergence trace runs: all but direct."""
    methods = [m for m in cfg.run.methods if m != "direct"]
    if not methods:
        raise ConfigurationError("convergence trace needs at least one iterative method")
    return methods


def convergence_trace(cfg) -> dict:
    """Median least-square error ||P w^(t) - s||^2 / ||s||^2 per iteration.

    Solves the central-subarray system P_c w = s with a random QPSK symbol
    vector per trial, for `run.trials` trials; returns {method: array of
    length run.t_max + 1} for the iterative methods of `run.methods`.
    """
    validate(cfg)
    methods = iterative_methods(cfg)
    scenario = build_scenario(cfg)
    # A trial's working set is the larger of its draw's, the (K, M) rows
    # complex and real (2 M K complex entries), and its kernel's after them:
    # the blocks and Gram (under M K + K^2) and, per step, one solve's
    # iterate and residual (2 K) and each method's float trace, counted at
    # 16 bytes.
    M, K, steps = scenario.geometry.M, scenario.K, cfg.run.t_max + 1
    trial_bytes = max(32 * M * K,
                      16 * (M * K + K * K + steps * (2 * K + len(methods))))
    point = (scenario, (CONVERGENCE,), methods, trial_bytes)
    traces, = monte_carlo(cfg, _ls_error_kernel, [point], cfg.run.trials)
    return {m: np.median(traces[m], axis=0) for m in methods}


def _ls_error_kernel(cfg, real, rngs, methods) -> dict:
    """Per method, the (trials, t_max + 1) LS-error traces of the batch."""
    bits = np.stack([rng.integers(0, 2, size=(real.K, 2), dtype=np.int8)
                     for rng in rngs])
    sys = HpdSystem(P=gram_regularized(real.Hc, cfg.power.xi),
                    rhs=qpsk_modulate(bits))
    return {m: solve(sys, m, cfg.run.t_max, cfg.solver.omega).residual_trace
            for m in methods}


def se_montecarlo(cfg):
    """Per M of `run.m_grid`, in order: (M, {method: sum SE of each of the
    `run.trials` trials}) for every method of `run.methods`."""
    validate(cfg)
    scenarios = [build_scenario(cfg, M=M) for M in cfg.run.m_grid]
    points = [(s, (SE_VS_M, s.geometry.M), None, precoding_bytes(s))
              for s in scenarios]
    return zip(cfg.run.m_grid, monte_carlo(cfg, _sum_se_kernel, points,
                                           cfg.run.trials))


def se_trial(cfg, scenario, trials) -> dict:
    """Sum SE of every method of `run.methods` on paired draws (the same
    channels for all), as an array over the sequence `trials` per method;
    the trials run as one batch of the se_vs_m pipeline."""
    return _run_batch((_sum_se_kernel, cfg, scenario,
                       (SE_VS_M, scenario.geometry.M), trials, None))


def _sum_se_kernel(cfg, real, rngs, arg) -> dict:
    """Per method, the sum SE of each trial of the batch."""
    pw, sol = cfg.power, cfg.solver
    return precode_each(real, pw.xi, pw.tx_power_watts, cfg.run.methods,
                        sol.T, sol.omega,
                        lambda pre: sinr_eq9(real, pre, pw.sigma2_watts).sum_se)
