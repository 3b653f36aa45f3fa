"""RZF precoding per channel block, direct or via the iterative solvers.

Each block i gets G_i = beta_i * H_i (H_i^H H_i + xi I)^{-1} with beta_i
enforcing tr(G_i^H G_i) = power.  The iterative variant materializes the
approximate inverse column by column so per-user precoding vectors exist for
the SINR evaluation; beta is computed from the approximate solution.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import check_blocks, stack_blocks
from .errors import ConfigurationError, DegenerateChannelError
from .linsolve import (DEFAULT_OMEGA, DEFAULT_PCG_VARIANT, DEFAULT_T,
                       ITERATIVE_SOLVERS, HpdSystem, direct_solve)


@dataclass(frozen=True)
class PrecoderBlock:
    """One block's precoder G = beta * F with F = H P^{-1} (possibly approximate)."""

    G: np.ndarray
    F: np.ndarray
    beta: float


@dataclass(frozen=True)
class BlockPrecoder:
    """Stacked precoder for the S=3, L=2 topology with per-block power control."""

    G1: np.ndarray
    Gc: np.ndarray
    G2: np.ndarray
    beta_1: float
    beta_c: float
    beta_2: float

    def __post_init__(self):
        check_blocks(self.G1, self.Gc, self.G2)

    @cached_property
    def G(self) -> np.ndarray:
        """(M, K) stacked precoder with exact zero blocks, built on first use."""
        return stack_blocks(self.G1, self.Gc, self.G2)

    @property
    def K1(self) -> int:
        return self.G1.shape[1]

    @property
    def Gc1(self) -> np.ndarray:
        return self.Gc[:, :self.K1]

    @property
    def Gc2(self) -> np.ndarray:
        return self.Gc[:, self.K1:]


def gram_regularized(H: np.ndarray, xi: float) -> HpdSystem:
    """P = H^H H + xi I, symmetrized; rhs defaults to the identity columns."""
    if xi <= 0:
        raise ConfigurationError(f"regularization xi must be positive, got {xi}")
    H = np.asarray(H, dtype=complex)
    n = H.shape[1]
    P = H.conj().T @ H + xi * np.eye(n)
    P = (P + P.conj().T) / 2.0
    return HpdSystem(P=P, rhs=np.eye(n, dtype=complex), xi=xi)


def _power_scale(H, F, power):
    tr = float(np.vdot(F, F).real)
    if tr <= 0:
        raise DegenerateChannelError(
            "tr(F^H F) = 0; channel block carries no energy")
    beta = float(np.sqrt(power / tr))
    return PrecoderBlock(G=beta * F, F=F, beta=beta)


def rzf_direct(H: np.ndarray, xi: float, power: float) -> PrecoderBlock:
    """Exact RZF block via Cholesky solves."""
    sys = gram_regularized(H, xi)
    Pinv = direct_solve(sys).w
    F = np.asarray(H, dtype=complex) @ Pinv
    return _power_scale(H, F, power)


def rzf_iterative(H: np.ndarray, xi: float, power: float, solver: str = "jacpcg",
                  T: int = DEFAULT_T, omega: float = DEFAULT_OMEGA,
                  eps: float | None = None,
                  pcg_variant: str = DEFAULT_PCG_VARIANT) -> PrecoderBlock:
    """Approximate RZF block: solve P x_j = e_j for each column with T iterations."""
    out = solve_iterative(gram_regularized(H, xi), solver, T, omega=omega,
                          eps=eps, pcg_variant=pcg_variant)
    F = np.asarray(H, dtype=complex) @ out.w
    return _power_scale(H, F, power)


def solve_iterative(sys: HpdSystem, solver: str, T: int,
                    omega: float = DEFAULT_OMEGA, eps: float | None = None,
                    pcg_variant: str = DEFAULT_PCG_VARIANT, **kwargs):
    """Dispatch P w = s to the named iterative scheme (per-symbol path)."""
    if solver not in ITERATIVE_SOLVERS:
        raise ConfigurationError(
            f"unknown solver {solver!r}; expected one of {sorted(ITERATIVE_SOLVERS)}")
    if solver == "jor":
        kwargs["omega"] = omega
    elif solver == "jacpcg":
        kwargs["variant"] = pcg_variant
    return ITERATIVE_SOLVERS[solver](sys, T, eps=eps, **kwargs)


def assemble_precoder(block1: PrecoderBlock, blockc: PrecoderBlock,
                      block2: PrecoderBlock) -> BlockPrecoder:
    """Combine per-block precoders; the stacked M x K matrix is `.G`."""
    return BlockPrecoder(G1=block1.G, Gc=blockc.G, G2=block2.G,
                         beta_1=block1.beta, beta_c=blockc.beta,
                         beta_2=block2.beta)


def build_precoder(realization, xi: float, power: float, method: str,
                   T: int = DEFAULT_T, omega: float = DEFAULT_OMEGA,
                   pcg_variant: str = DEFAULT_PCG_VARIANT) -> BlockPrecoder:
    """All three blocks of Eq.-6 structure for one channel realization."""
    if method == "direct":
        blocks = [rzf_direct(H, xi, power) for H in realization.blocks()]
    else:
        blocks = [rzf_iterative(H, xi, power, solver=method, T=T, omega=omega,
                                pcg_variant=pcg_variant)
                  for H in realization.blocks()]
    return assemble_precoder(*blocks)
