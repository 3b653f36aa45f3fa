"""Physical ULA construction, subarray partition, user drop and visibility regions.

The base-station array lies along one edge of the square cell, from (0, 0)
towards (N, 0); users live in the square [0, CELL_SIDE]^2.  The array, the
cell, S = 3 subarrays and L = 2 user groups are model constants, not settings.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GeometryInfeasibleError

# Engineering convention (c = 3e8 m/s) rather than the CODATA value: the
# antenna spacing, and so every position and the array length N, derive
# from it.
C_LIGHT = 3.0e8

MAX_RETRIES = 10_000  # rejection rounds per sampler call before it gives up

SUBARRAYS = 3  # S: side subarray, central subarray, side subarray
GROUPS = 2     # L: user groups, each served by one side plus the central one

CARRIER_HZ = 2.6e9
SPACING_WAVELENGTHS = 2.0
CELL_SIDE = 100.0  # [m]
MIN_DIST = 30.0    # [m]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array split into `SUBARRAYS` contiguous subarrays."""

    M: int
    positions: np.ndarray  # (M,) antenna positions along the array axis [m]
    N: float               # physical array length, M * spacing [m]
    subarray_of: np.ndarray  # (M,) antenna index -> subarray index 0, 1 or 2

    @property
    def M_s(self) -> int:
        return self.M // SUBARRAYS


def build_geometry(M: int) -> ArrayGeometry:
    """Build the ULA with wavelength-derived spacing and a contiguous partition."""
    if M <= 0:
        raise ConfigurationError(f"M must be positive, got M={M}")
    if M % SUBARRAYS != 0:
        raise ConfigurationError(
            f"antenna count M={M} is not divisible by S={SUBARRAYS}")
    spacing = SPACING_WAVELENGTHS * (C_LIGHT / CARRIER_HZ)
    positions = np.arange(M) * spacing
    subarray_of = np.repeat(np.arange(SUBARRAYS), M // SUBARRAYS)
    return ArrayGeometry(M=M, positions=positions, N=M * spacing,
                         subarray_of=subarray_of)


def drop_users(rng: np.random.Generator, K: int,
               geometry: ArrayGeometry) -> np.ndarray:
    """Place K users uniformly in the cell, at least MIN_DIST from every
    antenna; returns the (K, M) user-antenna distances [m].

    Rejection sampling over all users at once: each round draws one candidate
    (uniform((n, 2))) for each of the n users still unplaced, and a user keeps
    its first accepted candidate.  K must split evenly into the `GROUPS` user
    groups.
    """
    if K <= 0 or K % GROUPS != 0:
        raise ConfigurationError(f"user count K={K} is not divisible by L={GROUPS}")

    distances = np.empty((K, geometry.M))
    ax = geometry.positions
    pending = np.arange(K)
    for _ in range(MAX_RETRIES):
        p = rng.uniform(0.0, CELL_SIDE, size=(pending.size, 2))
        d = np.hypot(p[:, :1] - ax, p[:, 1:])
        ok = d.min(axis=1) >= MIN_DIST
        distances[pending[ok]] = d[ok]
        pending = pending[~ok]
        if not pending.size:
            return distances
    raise GeometryInfeasibleError(
        f"could not place user {pending[0]} at {MIN_DIST} m from the array "
        f"after {MAX_RETRIES} attempts")


def sample_vr(rng: np.random.Generator, geometry: ArrayGeometry,
              mu_l: float, sigma_l: float,
              required: np.ndarray) -> np.ndarray:
    """Sample visibility regions, center uniform on [0, N] and log-normal
    length; returns the (..., M) boolean masks of the antennas each covers.

    mu_l is the mean length on the linear scale, so the log-length has mean
    log(mu_l) - sigma_l^2 / 2.  `required` (..., M) asks for one region per
    mask row (a user's row of `Scenario.serving`).  A region is redrawn
    until it covers at least one antenna of its row, so no user ends up
    with an all-zero effective channel.  Each round draws uniform(n)
    centers, then lognormal(n) lengths, for the n rows still pending; a row
    keeps its first accepted draw.
    """
    if sigma_l <= 0:
        raise ConfigurationError(f"sigma_l must be positive, got {sigma_l}")
    if mu_l <= 0:
        raise ConfigurationError(f"mean VR length must be positive, got {mu_l}")
    mu = np.log(mu_l) - 0.5 * sigma_l ** 2

    pos, N = geometry.positions, geometry.N
    needed = np.asarray(required, dtype=bool)
    if needed.shape[-1:] != (geometry.M,):
        raise ConfigurationError(
            f"required mask shape {needed.shape} does not end in M={geometry.M}")
    if not needed.any(axis=-1).all():
        raise ConfigurationError("required mask excludes every antenna")
    rows = needed.reshape(-1, geometry.M)
    visible = np.empty(rows.shape, dtype=bool)
    pending = np.arange(len(rows))
    for _ in range(MAX_RETRIES):
        c = rng.uniform(0.0, N, size=pending.size)
        ln = rng.lognormal(mean=mu, sigma=sigma_l, size=pending.size)
        lo = np.maximum(0.0, c - ln / 2.0)
        hi = np.minimum(N, c + ln / 2.0)
        vis = (pos >= lo[:, None]) & (pos <= hi[:, None])
        # An all-invisible draw would zero the user's effective channel row;
        # resample until the region reaches an antenna that can serve them.
        ok = (vis & rows[pending]).any(axis=1)
        visible[pending[ok]] = vis[ok]
        pending = pending[~ok]
        if not pending.size:
            return visible.reshape(needed.shape)
    raise GeometryInfeasibleError(
        f"no visible antenna for user {pending[0]} (row of `required`) "
        f"after {MAX_RETRIES} VR draws")
