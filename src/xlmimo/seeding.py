"""Deterministic random streams, one per Monte-Carlo trial.

A stream is keyed by the master seed and a tuple of small nonnegative
integers: `SeedSequence(master, spawn_key=key)`.  Every pipeline starts its
key with its own tag, so no two pipelines share a stream, and keeps the grid
point in the key instead of folding it into the seed:

- se_vs_m:     (SE_VS_M, M, trial)
- ber:         (BER, SNR-grid index, trial)
- convergence: (CONVERGENCE, trial)
"""

import numpy as np

SE_VS_M, BER, CONVERGENCE = 1, 2, 3


def seed_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (master_seed, *key), identical across platforms."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=key))
