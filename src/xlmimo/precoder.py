"""RZF precoding per channel block, direct or via the iterative solvers.

Each block i gets G_i = beta_i * F_i with F_i = H_i P_i^{-1},
P_i = H_i^H H_i + xi I, and beta_i enforcing tr(G_i^H G_i) = power.  Every
method solves P_i X = I with one right-hand side per user, so per-user
precoding vectors exist for the SINR evaluation; beta is computed from the
(possibly approximate) solution.  Blocks may carry leading trial dimensions
(..., M_i, K_i): one call then precodes a stack of trials.

`precode_each` makes one pass for several methods: one Gram and HPD check
per block group (the two side blocks stacked on a leading axis, the central
block) and one solve per group and method.  A stacked system rounds as if
solved alone, so the precoders equal those of a solve per block.
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
    if not xi > 0:
        raise ConfigurationError(f"regularization xi must be positive, got {xi}")
    H = np.asarray(H, dtype=complex)
    P = herm(H) @ H + xi * np.eye(H.shape[-1])
    return (P + herm(P)) / 2.0


def precode_each(realization, xi: float, power: float, methods, T: int,
                 omega: float, consume) -> dict:
    """{method: consume(precoder)} for each of `methods` on a realization (or
    a stack of them).  Each precoder is consumed before the next is built.

    Raises `DegenerateChannelError` when every block of some trial carries
    no energy.
    """
    if not power > 0:
        raise ConfigurationError(f"transmit power must be positive, got {power}")
    groups = []
    for H in (np.stack((realization.H1, realization.H2)), realization.Hc):
        P = gram_regularized(H, xi)
        eye = np.broadcast_to(np.eye(P.shape[-1], dtype=complex), P.shape)
        groups.append((np.asarray(H, dtype=complex), HpdSystem(P=P, rhs=eye)))
    return {m: consume(_precoder(groups, power, m, T, omega)) for m in methods}


def _precoder(groups, power, method, T, omega) -> BlockPrecoder:
    (G_s, live_s), (Gc, live_c) = (
        _scaled(H, solve(sys, method, T, omega, trace=False).w, power)
        for H, sys in groups)
    if not np.all(live_s[0] | live_c | live_s[1]):
        raise DegenerateChannelError(
            "tr(F^H F) = 0 in every block; the channel carries no energy")
    return BlockPrecoder(G_s[0], Gc, G_s[1])


def _scaled(H, W, power):
    """(G, live) of a block group: G = beta F with F = H P^{-1} and beta =
    sqrt(power / tr(F^H F)).  A block with no energy in a trial (every user
    it serves sees none of its antennas) gets G = 0, and `live` is false."""
    F = H @ W
    tr = sq_norms(F)
    live = tr > 0
    beta = np.where(live, np.sqrt(power / np.where(live, tr, 1.0)), 0.0)
    F *= beta[..., None, None]
    return F, live


def build_precoder(realization, xi: float, power: float, method: str,
                   T: int = DEFAULT_T,
                   omega: float = DEFAULT_OMEGA) -> BlockPrecoder:
    """All three blocks of Eq.-6 structure for a realization (or a stack of
    them): the pass of `precode_each` for one method."""
    return precode_each(realization, xi, power, (method,), T, omega,
                        lambda pre: pre)[method]
