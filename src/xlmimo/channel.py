"""Non-stationary correlated channel model pieces and block assembly.

Channel vectors are h = sqrt(w) .* hbar with hbar ~ CN(0, Theta), where
Theta = D^{1/2} R D^{1/2} restricted to per-subarray diagonal blocks; D is
the 0/1 visibility indicator and R the spatial correlation matrix.  The
per-trial draw with this law is `scenario.draw_trial`.  The block layout
(S = 3 subarrays, L = 2 user groups) and the path loss w = OMEGA * d^(-NU)
are constants of the model.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, ConfigurationError, ModelError
from .geometry import SUBARRAYS

PSD_CLAMP = 1e-12
PSD_NEG_TOL = 1e-10

OMEGA = 4.0  # gain at 1 m; the gain calibration in draw_trial divides it out
NU = 3.0     # path-loss exponent


def path_loss(d) -> np.ndarray:
    """Per-antenna large-scale power gain w = OMEGA * d^(-NU)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ConfigurationError("all distances must be positive")
    return OMEGA * d ** (-NU)


def build_correlation(M: int, rho: float) -> np.ndarray:
    """Exponential M x M correlation matrix R[i, j] = rho^|i-j| (Hermitian Toeplitz)."""
    if not 0.0 <= rho < 1.0:
        raise ConfigurationError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(M)
    return rho ** np.abs(idx[:, None] - idx).astype(float)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition with rank handling.

    Eigenvalues below `PSD_CLAMP` are zeroed; eigenvalues below
    -PSD_NEG_TOL (relative to the largest) raise.
    """
    vals, vecs = np.linalg.eigh(mat)
    scale = max(1.0, float(vals[-1]) if vals.size else 1.0)
    if vals.size and vals[0] < -PSD_NEG_TOL * scale:
        raise ModelError(
            f"covariance not PSD: min eigenvalue {vals[0]:.3e}")
    vals = np.where(vals < PSD_CLAMP, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def check_blocks(B1: np.ndarray, Bc: np.ndarray, B2: np.ndarray) -> None:
    """The central block serves both groups: it needs K1 + K2 columns.

    Blocks may carry leading trial dimensions, the same for all three.
    """
    K1, K, K2 = B1.shape[-1], Bc.shape[-1], B2.shape[-1]
    if K != K1 + K2:
        raise AssemblyError(
            f"central block has {K} columns, expected K1+K2 = {K1 + K2}")
    if not B1.shape[:-2] == Bc.shape[:-2] == B2.shape[:-2]:
        raise AssemblyError(
            f"blocks have different trial dimensions: {B1.shape}, "
            f"{Bc.shape}, {B2.shape}")


def stack_blocks(B1: np.ndarray, Bc: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Stack side/central/side blocks into the (..., M, K) matrix with zero blocks."""
    M1, K1 = B1.shape[-2:]
    Mc, K = Bc.shape[-2:]
    out = np.zeros((*Bc.shape[:-2], M1 + Mc + B2.shape[-2], K), dtype=complex)
    out[..., :M1, :K1] = B1
    out[..., M1:M1 + Mc, :] = Bc
    out[..., M1 + Mc:, K1:] = B2
    return out


@dataclass(frozen=True)
class ChannelRealization:
    """Block channel matrices for the S=3, L=2 topology.

    Each block may carry leading trial dimensions (...): one object then
    holds a stack of trials (see `stack_realizations`).
    """

    H1: np.ndarray  # (..., M_1, K_1) subarray 1 x group 1
    Hc: np.ndarray  # (..., M_c, K)   central subarray x all users
    H2: np.ndarray  # (..., M_2, K_2) subarray 2 x group 2

    def __post_init__(self):
        check_blocks(self.H1, self.Hc, self.H2)

    @cached_property
    def H(self) -> np.ndarray:
        """(..., M, K) stacked channel with exact zero blocks, built on first use."""
        return stack_blocks(self.H1, self.Hc, self.H2)

    @property
    def K1(self) -> int:
        return self.H1.shape[-1]

    @property
    def K(self) -> int:
        return self.Hc.shape[-1]

    def blocks(self):
        return self.H1, self.Hc, self.H2


def stack_realizations(realizations) -> ChannelRealization:
    """One realization whose blocks carry a leading axis over `realizations`."""
    return ChannelRealization(*(np.stack(blocks) for blocks in
                                zip(*(r.blocks() for r in realizations))))


def assemble_from_user_channels(h_users: np.ndarray,
                                K1: int) -> ChannelRealization:
    """Assemble (K, M) per-user full-array channel rows into the block layout.

    The first K1 users form group 1, the rest group 2, and the antennas split
    into three equal subarrays.  Dropping each group's unserved side subarray
    leaves the exact zero blocks.
    """
    Ms = h_users.shape[1] // SUBARRAYS
    return ChannelRealization(h_users[:K1, :Ms].T, h_users[:, Ms:2 * Ms].T,
                              h_users[K1:, 2 * Ms:].T)
