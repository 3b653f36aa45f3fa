"""Link-level metrics: per-user SINR/SE, BER Monte Carlo, convergence traces.

The SINR of user k in group i combines the own-subarray and central-subarray
signal terms, intra-group interference through both, cross-group interference
through the central subarray only, and the noise floor.

The three Monte-Carlo pipelines check their config with `config.validate`
on entry, as the CLI does, and run on one batch driver, `monte_carlo`.
Trial t of a grid point draws from `seed_stream(run.seed, *key, t)`, keyed
(SE_VS_M, M), (BER, SNR-grid index) or (CONVERGENCE,).  A batch is one
pass of its pipeline's kernel, sized by a K-only working set.  It is drawn
in sub-batches sized by M (`scenario.draw_batch`, each trial from its own
stream), and each sub-batch is reduced at once to what the kernel reads:
its `precoder.GramStack`, or for convergence its regularized central Gram
(three K x K arrays per trial, or one).  The kernel gets the list of
reductions in trial order, joins them and empties the list, so that it
holds each once, and makes one precoder pass (`precoder.precode_each`,
which drops the joined Gram stack once it has cut its size classes) or one
solve per method, with no M x K array left.  Memory stays within
`BATCH_BYTES` as M and K grow.
"""

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .config import PowerConfig, validate
from .errors import ConfigurationError
from .linsolve import HpdSystem, solve
from .precoder import (CLASS_STEP, gram_regularized, gram_stack,
                       precode_each, take_joined)
from .scenario import build_scenario, draw_batch
from .seeding import BER, CONVERGENCE, SE_VS_M, seed_stream

BATCH_BYTES = 3 << 19
"""Working memory one batch may hold, in bytes (1.5 MiB), draw and pass
together.

Four terms size a batch:
- each trial's stream, `STREAM_BYTES`, held for the whole batch;
- the pass, per trial: `precoding_bytes`, or for convergence the solves'
  working set; K x K arrays and per-step K-vectors only;
- BER's QPSK chain, once per batch: 54 bytes per user and symbol, 864 KiB
  at K = 32 and 512 symbols, beside each trial's B of every method.  The
  pass has dropped its Gram stack and solves by then, so a BER batch is
  sized by the larger of its pass and its chain, not their sum
  (`ber_montecarlo`).  Above about 900 symbols per channel at K = 32 the
  chain alone exceeds the budget, and a batch of one trial overruns it;
- the draw, per trial and per draw call: `draw_bytes`, mostly the (K, M)
  rows, or the reduction that follows it while the blocks are still held,
  whichever is larger.  A batch draws in sub-batches (`draw_batches`), each
  of which gets what the budget leaves after the streams and the
  reductions already held, the K x K arrays per trial that `_REDUCTIONS`
  states for its kernel.
Larger passes are faster, since a pass's numpy calls cost about the same
whatever the stack: precoding and SINR for five methods at M = 99 and
25 dB took 4.05 ms per trial alone, 1.34 ms in a stack of 6, 1.03 ms in
one of 12 and 0.89 ms in one of 48 (one BLAS thread, numpy 2.4).  The
benchmark's `peak_rss_mb` has a 5% bound, about 2 MB."""

STREAM_BYTES = 1024
"""A trial's seed stream: its generator and seed sequence, 0.9 KB under
tracemalloc."""


def _split(trials: int, count: int) -> list:
    """Trial indices 0..trials-1 as `count` consecutive ranges of near-equal
    length."""
    return [range(i * trials // count, (i + 1) * trials // count)
            for i in range(count)]


def trial_batches(trials: int, trial_bytes: int, fixed_bytes: int = 0) -> list:
    """Trial indices 0..trials-1 as consecutive ranges of near-equal length.

    Each range holds at most max(1, (BATCH_BYTES - fixed_bytes) //
    trial_bytes) trials.
    """
    size = max(1, (BATCH_BYTES - fixed_bytes) // trial_bytes)
    return _split(trials, -(-trials // size))


def draw_batches(scenario, trials: int, grams: int) -> list:
    """Sub-batches 0..trials-1 of a batch's draw: the fewest near-equal
    ranges, at least one trial each, where each range's draw gets what
    `BATCH_BYTES` leaves after the batch's streams and the reductions of the
    ranges before it, `grams` K x K complex arrays per trial.

    A range's draw peaks in `draw_bytes`, or in its reduction, formed while
    its channel blocks (2/3 M K entries per trial, counted as 11 M K bytes)
    are still held: per trial the reduction's `grams` K x K and 1.5 more it
    is formed from (a `GramStack`'s three unpadded block Grams, or a Gram
    and its conjugate transpose), and the 128 KiB buffer numpy takes to add
    that transpose.  Eight trials reduced to their `GramStack` at M = 99,
    K = 32 peak at 862 KB under tracemalloc, against 811 KB for their draw.
    """
    held, room = 16 * grams * scenario.K ** 2, BATCH_BYTES - trials * STREAM_BYTES
    reduction = 11 * scenario.geometry.M * scenario.K + held + 24 * scenario.K ** 2
    count = next((c for c in range(1, trials) if all(
        max(draw_bytes(scenario, len(r)), len(r) * reduction + (128 << 10))
        + r.start * held <= room for r in _split(trials, c))), trials)
    return _split(trials, count)


def draw_bytes(scenario, trials: int) -> int:
    """Peak memory of one `draw_batch` of `trials` trials, the larger of
    two phases.  While it draws: per trial its (K, M) rows, the complex
    channel, its real amplitudes and the VR mask (25 bytes per entry,
    counted as 26), and per draw 48 M K bytes; under tracemalloc a draw of
    b trials peaks at (25 b + 48) M K bytes for b from 2 to 15 at M = 99
    and 264.  While it cuts the channel blocks from the rows: the rows, the
    mask and the blocks, 27.7 bytes per entry and trial, counted as 28; this
    phase is the larger above 24 trials.  Each sub-batch releases its blocks
    once reduced."""
    return scenario.geometry.M * scenario.K * max(26 * trials + 48, 28 * trials)


def precoding_bytes(scenario) -> int:
    """One trial's share of a precoder pass, its stream included: seven
    K x K complex arrays and 12 CLASS_STEP K-vectors, 161 KiB at K = 32.
    The pass holds only K x K arrays: the batch's Gram stack (three per
    trial, the side blocks' K/2 x K/2 Grams zero-padded), joined from its
    sub-batches' stacks, until its size classes are cut from it; each size
    class's Grams and system with xi I; one solve's; and one method's
    coupling stack, padded the same way and formed after its solves, then
    B.  A class is at least CLASS_STEP users wide, so below K = 32 each
    fills its block, and a pass holds more per K^2.  Under tracemalloc an
    se_vs_m pass peaks at about 6.7 K x K per trial at K = 32, where the
    classes are cut beside the Gram stack, and a BER pass at 10.9, in its
    last method's solves beside the four B that the earlier methods hold
    for the chain; this term counts 10.1.  BER charges each B past the
    fourth method on top (see `ber_montecarlo`)."""
    return 16 * scenario.K * (7 * scenario.K + 12 * CLASS_STEP) + STREAM_BYTES


def monte_carlo(cfg, kernel, points, trials: int, fixed_bytes: int = 0):
    """Yield, per grid point in order, `kernel`'s outputs on trials
    0..trials-1 of the point, concatenated in trial order.

    A point is (scenario, key, arg, trial_bytes); its trials split into
    `trial_batches(trials, trial_bytes, fixed_bytes)`.  Per batch,
    `kernel(cfg, reduced, rngs, arg)` gets the batch's draws reduced (see
    `_run_batch`) and each trial's stream, past its draw, and returns a
    dict of arrays over the batch.  Batches run serially or on one pool of
    at most `run.workers` processes, with the same bytes.  The pool pickles
    the kernel by name: a module-level function that no tracer swaps."""
    per_point = [trial_batches(trials, trial_bytes, fixed_bytes)
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
    """Draw one batch of trials in `draw_batches`, reduce each sub-batch to
    what the kernel reads as soon as it is drawn, releasing its blocks, and
    apply the kernel to the list of reductions in trial order, which the
    kernel joins and empties (`precoder.take_joined`)."""
    kernel, cfg, scenario, key, trials, arg = job
    rngs = [seed_stream(cfg.run.seed, *key, t) for t in trials]
    reduce, grams = _REDUCTIONS[kernel]
    parts = [reduce(cfg, draw_batch(scenario, rngs[r.start:r.stop]).realization)
             for r in draw_batches(scenario, len(rngs), grams)]
    return kernel(cfg, parts, rngs, arg)


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

    The precoder pass forms B once (`BlockPrecoder.B`); `realization` is
    not read, and the pipelines' passes, which drop their `GramStack`, pass
    None.
    """
    return precoder.B


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
    levels[...] = bits
    levels *= -2.0 * _QPSK_LEVEL
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
    K, nsym = scenario.K, cfg.run.symbols_per_channel
    gain_bytes, methods = 16 * K * K, len(cfg.run.methods)  # one B per trial
    bits_per_draw = 2 * K * nsym
    draws = -(-cfg.run.bits_per_point // bits_per_draw)  # ceil
    # A batch holds the larger of two phases, each (bytes per trial, bytes
    # per batch).  The pass: `precoding_bytes`, which counts the Gram stack
    # (three K x K per trial) that the pass drops before any method's B is
    # held, so only the B held past the fourth method come on top.  The
    # QPSK chain: every method's B and the stream per trial, and once per
    # batch, per user and symbol, the noise and received-block workspaces
    # and one trial's symbols (16 bytes each) and its bits, decisions and
    # their comparison (2 bytes each).
    phases = [(precoding_bytes(scenario) + gain_bytes * max(0, methods - 4), 0),
              (gain_bytes * methods + STREAM_BYTES, 54 * K * nsym)]
    trial_bytes, fixed_bytes = min(
        phases, key=lambda phase: (BATCH_BYTES - phase[1]) // phase[0])
    points = [(scenario, (BER, ig), snr_db, trial_bytes)
              for ig, snr_db in enumerate(grid)]
    counts = list(monte_carlo(cfg, _ber_kernel, points, draws, fixed_bytes))
    errors = {m: np.array([c[m].sum() for c in counts], dtype=np.int64)
              for m in cfg.run.methods}
    bits_simulated = draws * bits_per_draw
    ber = {m: errors[m] / float(bits_simulated) for m in cfg.run.methods}
    return BerReport(snr_grid_db=grid, ber=ber, bit_errors=errors,
                     bits_simulated=bits_simulated)


def _ber_kernel(cfg, parts, rngs, snr_db) -> dict:
    """Bit errors of each trial of the batch, per method, at `snr_db`.

    Detection is genie-aided: user k's decisions are the signs of Re and Im
    of y conj(g_k), g_k = B[k, k].  In exact arithmetic they are those of
    y / g_k, since |g_k|^2 > 0; after rounding they may differ only where
    Re or Im of y conj(g_k) lies within an ulp or so of zero, so byte
    identity with the division is checked on the benchmark's configs, not
    proved.  A dead user (g_k = 0) decides on y itself, a coin flip.

    `parts` are the batch's `GramStack`s, which the pass joins and drops;
    by the chain it holds each method's B, (batch, K, K), and the chain
    peaks at its 54 bytes per user and symbol (see `ber_montecarlo`).
    """
    power, sol = PowerConfig(snr_db=snr_db), cfg.solver
    K, nsym = cfg.users.K, cfg.run.symbols_per_channel
    couplings = precode_each(parts, power.xi, power.tx_power_watts,
                             cfg.run.methods, sol.T, sol.omega,
                             lambda pre: coupling_matrix(None, pre))
    errors = {m: np.zeros(len(rngs), dtype=np.int64) for m in couplings}
    # Bits and noise follow each trial's channel on its stream, trial by
    # trial: stacked over the batch, the chain adds memory and saves no time.
    # The noise and every method's received block Y are formed in two
    # workspaces for the batch.  A trial's symbols are formed after its
    # noise, so the draw's standard normals are gone by then; its bits and
    # symbols are released before the next trial's are drawn.  Y is scaled
    # by the gains a quarter of its rows at a time: numpy buffers a
    # broadcast product, 16 bytes per element up to 128 KiB, and a quarter's
    # buffer fits in the 4 bytes per user and symbol of the decisions,
    # which are not yet formed then.  Each element is the same complex
    # product either way.
    noise, Y = np.empty((2, K, nsym), dtype=complex)
    step = -(-K // 4)
    quarters = [slice(k, k + step) for k in range(0, K, step)]
    for i, rng in enumerate(rngs):
        bits = rng.integers(0, 2, size=(K, nsym, 2), dtype=np.int8)
        noise.real = rng.standard_normal((K, nsym))
        noise.imag = rng.standard_normal((K, nsym))
        noise *= np.sqrt(power.sigma2_watts / 2.0)
        symbols = qpsk_modulate(bits)
        for m, B in couplings.items():
            np.matmul(B[i], symbols, out=Y)
            Y += noise
            # conj(g) per user, (K, 1); a dead user's g = 0 is 1.  Formed
            # per trial: the batch's gains would not fit beside the chain.
            g = np.diagonal(B[i]).conj()[:, None]
            g[g == 0] = 1.0
            for q in quarters:
                Y[q] *= g[q]
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
    # A batch's trials, by the kernel's working set alone (K only), and its
    # stream: four complex K x K (the Gram and its check's temporaries) and,
    # per step, the stacked iterates and residuals (2 K complex) and each
    # real trace; and 512 bytes for the trial's bits, an array of their own
    # until stacked, and the per-system overheads of the solves (0.4 KB at
    # K = 2 under tracemalloc).
    K, steps, n = scenario.K, cfg.run.t_max + 1, len(methods)
    trial_bytes = 16 * K * (4 * K + 2 * steps) + 8 * steps * n + 512 + STREAM_BYTES
    point = (scenario, (CONVERGENCE,), methods, trial_bytes)
    traces, = monte_carlo(cfg, _ls_error_kernel, [point], cfg.run.trials)
    return {m: np.median(traces[m], axis=0) for m in methods}


def _ls_error_kernel(cfg, parts, rngs, methods) -> dict:
    """Per method, the (trials, t_max + 1) LS-error traces of the batch,
    on its regularized central Grams P."""
    P = take_joined(parts, np.concatenate)
    bits = np.stack([rng.integers(0, 2, size=(P.shape[-1], 2), dtype=np.int8)
                     for rng in rngs])
    sys = HpdSystem(P=P, rhs=qpsk_modulate(bits))
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


def _sum_se_kernel(cfg, parts, rngs, arg) -> dict:
    """Per method, the sum SE of each trial of the batch."""
    pw, sol = cfg.power, cfg.solver
    return precode_each(parts, pw.xi, pw.tx_power_watts, cfg.run.methods,
                        sol.T, sol.omega,
                        lambda pre: sinr_eq9(None, pre, pw.sigma2_watts).sum_se)


# Per kernel: the reduction of a drawn sub-batch that it reads, and the
# K x K complex arrays per trial that a reduction holds: a GramStack's three
# Grams, or one regularized Gram.
_REDUCTIONS = {
    _sum_se_kernel: (lambda cfg, real: gram_stack(real), 3),
    _ber_kernel: (lambda cfg, real: gram_stack(real), 3),
    _ls_error_kernel: (lambda cfg, real: gram_regularized(real.Hc,
                                                          cfg.power.xi), 1),
}
