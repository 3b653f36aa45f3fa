"""Shared test utilities: random HPD ensembles, condition numbers, stacks
of realizations, and independent LS-error and SINR oracles."""

import numpy as np

from xlmimo.channel import ChannelRealization
from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.errors import ConfigurationError, NotHpdError
from xlmimo.precoder import BlockPrecoder
from xlmimo.scenario import build_scenario, draw_trial
from xlmimo.seeding import seed_stream


def random_hpd(rng, n, cond_cap=100.0):
    """Well-conditioned random HPD matrix via a unitary eigenbasis."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    vals = rng.uniform(1.0, cond_cap, size=n)
    P = (Q * vals) @ Q.conj().T
    return (P + P.conj().T) / 2.0


def random_rhs(rng, n, m=None):
    shape = (n,) if m is None else (n, m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def diag_scaled_hpd(rng, n, scale_max=1e6):
    """HPD matrix with severe diagonal scaling; Jacobi preconditioning fixes it."""
    P0 = random_hpd(rng, n, cond_cap=10.0)
    d = np.sqrt(np.logspace(0.0, np.log10(scale_max), n))
    rng.shuffle(d)
    P = (d[:, None] * P0) * d[None, :]
    return (P + P.conj().T) / 2.0


CONDITION_SIZE_CAP = 512


def condition_number(P: np.ndarray) -> float:
    """Spectral condition number lambda_max / lambda_min of an HPD matrix."""
    P = np.asarray(P)
    if P.shape[0] > CONDITION_SIZE_CAP:
        raise ConfigurationError(
            f"dense condition number capped at n={CONDITION_SIZE_CAP}, "
            f"got n={P.shape[0]}")
    vals = np.linalg.eigvalsh(P)
    if vals[0] <= 0:
        raise NotHpdError(f"min eigenvalue {vals[0]:.3e} is not positive")
    return float(vals[-1] / vals[0])


def small_config(**overrides):
    """Desk-scale config: M=9 (3 subarrays of 3), K=4 users in 2 groups."""
    cfg = ExperimentConfig()
    # VR length ~3N: every antenna visible, so no block degenerates at M=9
    items = ["geometry.M=9", "users.K=4", "run.trials=3",
             "run.m_grid=[9]", "run.bits_per_point=2048",
             "run.symbols_per_channel=64", "channel.vr_mu_frac=3.0"]
    items += [f"{k}={v}" for k, v in overrides.items()]
    apply_overrides(cfg, items)
    return cfg


def small_draw(cfg=None, trial=0):
    cfg = cfg or small_config()
    scenario = build_scenario(cfg)
    return scenario, draw_trial(scenario, seed_stream(cfg.run.seed, trial))


def stacked(realizations) -> ChannelRealization:
    """One realization whose blocks stack `realizations` on a leading axis."""
    return ChannelRealization(*(np.stack(blocks) for blocks in
                                zip(*(r.blocks() for r in realizations))))


def explicit_precoder(channel_blocks, G_blocks) -> BlockPrecoder:
    """The precoder with blocks G_blocks = (G1, Gc, G2) on the channel blocks
    (H1, Hc, H2): its coupling blocks are the products H_i^H G_i."""
    G_blocks = tuple(G_blocks)
    return BlockPrecoder(*(np.swapaxes(np.conj(H), -1, -2) @ G
                           for H, G in zip(channel_blocks, G_blocks)),
                         blocks=lambda: G_blocks)


def ls_error_oracle(P, rhs, iterates) -> np.ndarray:
    """LS errors ||P w - s||^2 / ||s||^2 of w = 0 and each of `iterates`
    (a solver's `keep_iterates`), one `np.vdot` per system and iterate;
    shaped (..., len(iterates) + 1) like `SolverOutcome.residual_trace`.

    Vectors are solved as one-column matrices, so each product is the
    solver's own."""
    P = np.asarray(P, dtype=complex)
    col = np.ndim(rhs) < P.ndim
    s = np.asarray(rhs, dtype=complex)
    s = s[..., None] if col else s
    ws = [np.zeros_like(s)] + [w[..., None] if col else w for w in iterates]
    out = np.empty((*P.shape[:-2], len(ws)))
    for i in np.ndindex(P.shape[:-2]):
        snorm2 = np.vdot(s[i], s[i]).real
        for t, w in enumerate(ws):
            r = P[i] @ w[i] - s[i]
            out[i + (t,)] = np.vdot(r, r).real / (snorm2 if snorm2 > 0 else 1.0)
    return out


def sinr_scalar_oracle(realization, precoder, sigma2):
    """Term-by-term SINR with explicit scalar loops over the block structure.

    For user k of group i the signal travels through the group's own subarray
    and the central one; intra-group interference uses the same two paths;
    cross-group interference leaks only through the central subarray.
    """
    H1, Hc, H2 = realization.H1, realization.Hc, realization.H2
    K1 = realization.K1
    K = realization.K
    G1, Gc, G2 = precoder.G1, precoder.Gc, precoder.G2

    def own(k):
        # (own-subarray channel, own-subarray precoder columns, column offset)
        if k < K1:
            return H1[:, k], G1, 0
        return H2[:, k - K1], G2, K1

    gammas = []
    for k in range(K):
        h_own, G_own, off = own(k)
        hc = Hc[:, k]
        same_group = range(off, off + G_own.shape[1])
        signal = abs(np.vdot(h_own, G_own[:, k - off])
                     + np.vdot(hc, Gc[:, k])) ** 2
        interference = 0.0
        for j in range(K):
            if j == k:
                continue
            if j in same_group:
                amp = (np.vdot(h_own, G_own[:, j - off])
                       + np.vdot(hc, Gc[:, j]))
            else:
                amp = np.vdot(hc, Gc[:, j])
            interference += abs(amp) ** 2
        gammas.append(signal / (interference + sigma2))
    return np.asarray(gammas)
