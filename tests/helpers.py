"""Shared test utilities: random HPD ensembles, condition numbers and an
independent SINR oracle."""

import numpy as np

from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.errors import ConfigurationError, NotHpdError
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
