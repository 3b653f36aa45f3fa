"""Non-stationary correlated channel model pieces and block assembly.

Channel vectors are h = sqrt(w) .* hbar with hbar ~ CN(0, Theta), where
Theta = D^{1/2} R D^{1/2} restricted to per-subarray diagonal blocks; D is
the 0/1 visibility indicator and R the spatial correlation matrix.  The
batch draw with this law is `scenario.draw_batch`.  The block layout
(S = 3 subarrays, L = 2 user groups), the path loss w = OMEGA * d^(-NU) and
the correlation R[i, j] = RHO^|i-j| are constants of the model.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, ConfigurationError
from .geometry import SUBARRAYS

OMEGA = 4.0  # gain at 1 m; the gain calibration in draw_batch divides it out
NU = 3.0     # path-loss exponent
RHO = 0.5    # correlation between adjacent antennas
# Mean per-user gain (M / GAIN_REF_M)^GAIN_EXPONENT: unity at the reference
# array.  The exponent 2 models a per-antenna power budget (radiated power
# ~ M) on top of the aperture gain (~ M).
GAIN_REF_M = 99
GAIN_EXPONENT = 2.0


def path_loss(d) -> np.ndarray:
    """Per-antenna large-scale power gain w = OMEGA * d^(-NU)."""
    d = np.asarray(d, dtype=float)
    if not np.all((0 < d) & (d < np.inf)):
        raise ConfigurationError("all distances must be positive and finite")
    w = d ** (-NU)
    w *= OMEGA
    return w


def build_correlation(M: int) -> np.ndarray:
    """Exponential M x M correlation matrix R[i, j] = RHO^|i-j| (Hermitian Toeplitz)."""
    idx = np.arange(M)
    return RHO ** np.abs(idx[:, None] - idx).astype(float)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-definite matrix, via `eigh`; the
    RHO = 0.5 correlation block has every eigenvalue in (1/3, 3)."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def check_blocks(B1: np.ndarray, Bc: np.ndarray, B2: np.ndarray) -> None:
    """The central block serves both groups: it needs K1 + K2 columns.  The
    side blocks have one shape, M/3 antennas by K/2 users, as the S = 3,
    L = 2 layout splits the array and the users: a side pair of two shapes
    is not that layout.

    Blocks may carry leading trial dimensions, the same for all three.
    """
    K1, K, K2 = B1.shape[-1], Bc.shape[-1], B2.shape[-1]
    if B1.shape[-2:] != B2.shape[-2:]:
        raise AssemblyError(
            f"side blocks differ in shape: {B1.shape[-2:]}, {B2.shape[-2:]}")
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
    holds a stack of trials (see `scenario.draw_batch`).
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


def assemble_from_user_channels(h_users: np.ndarray,
                                K1: int) -> ChannelRealization:
    """Assemble (..., K, M) per-user full-array channel rows into the block
    layout, one C-contiguous (..., M_s, K_i) array per block.

    The first K1 users form group 1, the rest group 2, and the antennas split
    into three equal subarrays.  Dropping each group's unserved side subarray
    leaves the exact zero blocks.
    """
    Ms = h_users.shape[-1] // SUBARRAYS
    return ChannelRealization(*(np.ascontiguousarray(np.swapaxes(h, -1, -2))
                                for h in (h_users[..., :K1, :Ms],
                                          h_users[..., Ms:2 * Ms],
                                          h_users[..., K1:, 2 * Ms:])))
