"""RZF precoding per channel block, direct or via the iterative solvers.

Each block i gets G_i = beta_i * F_i with F_i = H_i P_i^{-1},
P_i = H_i^H H_i + xi I, and beta_i enforcing tr(G_i^H G_i) = power.  Every
method solves P_i X = I with one right-hand side per user, so per-user
precoding vectors exist for the SINR evaluation; beta is computed from the
(possibly approximate) solution.  Blocks may carry leading trial dimensions
(..., M_i, K_i): one call then precodes a stack of trials.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import check_blocks, stack_blocks
from .errors import ConfigurationError, DegenerateChannelError
from .linsolve import DEFAULT_OMEGA, DEFAULT_T, HpdSystem, herm, solve, sq_norms


@dataclass(frozen=True)
class BlockPrecoder:
    """Stacked precoder for the S=3, L=2 topology with per-block power control.

    Blocks are (..., M_i, K_i), each already scaled by its beta_i.
    """

    G1: np.ndarray
    Gc: np.ndarray
    G2: np.ndarray

    def __post_init__(self):
        check_blocks(self.G1, self.Gc, self.G2)

    @cached_property
    def G(self) -> np.ndarray:
        """(..., M, K) stacked precoder with exact zero blocks, built on first use."""
        return stack_blocks(self.G1, self.Gc, self.G2)


def gram_regularized(H: np.ndarray, xi: float) -> np.ndarray:
    """P = H^H H + xi I per trial, symmetrized: (..., M, K) -> (..., K, K)."""
    if xi <= 0:
        raise ConfigurationError(f"regularization xi must be positive, got {xi}")
    H = np.asarray(H, dtype=complex)
    P = herm(H) @ H + xi * np.eye(H.shape[-1])
    return (P + herm(P)) / 2.0


def _rzf_block(H, xi, power, method, T, omega):
    """One block's (G, live): G = beta F with F = H P^{-1} and
    beta = sqrt(power / tr(F^H F)).

    A block with no energy in a trial (tr(F^H F) = 0: every user it serves
    sees none of its antennas) gets G = 0; `live` (...) is false there.
    """
    H = np.asarray(H, dtype=complex)
    P = gram_regularized(H, xi)
    eye = np.broadcast_to(np.eye(P.shape[-1], dtype=complex), P.shape)
    out = solve(HpdSystem(P=P, rhs=eye), method, T, omega, trace=False)
    F = H @ out.w
    tr = sq_norms(F)
    live = tr > 0
    beta = np.where(live, np.sqrt(power / np.where(live, tr, 1.0)), 0.0)
    return beta[..., None, None] * F, live


def build_precoder(realization, xi: float, power: float, method: str,
                   T: int = DEFAULT_T,
                   omega: float = DEFAULT_OMEGA) -> BlockPrecoder:
    """All three blocks of Eq.-6 structure for a realization (or a stack of them).

    Raises `DegenerateChannelError` when every block of some trial carries
    no energy.
    """
    (G1, live_1), (Gc, live_c), (G2, live_2) = (
        _rzf_block(H, xi, power, method, T, omega)
        for H in realization.blocks())
    if not np.all(live_1 | live_c | live_2):
        raise DegenerateChannelError(
            "tr(F^H F) = 0 in every block; the channel carries no energy")
    return BlockPrecoder(G1, Gc, G2)
