"""Physical ULA construction, subarray partition, user drop and visibility regions.

The base-station array lies along one edge of the square cell, from (0, 0)
towards (N, 0); users live in the square [0, cell_side]^2.  S = 3 subarrays
and L = 2 user groups are constants of the model, not settings.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GeometryInfeasibleError

# Engineering convention (c = 3e8 m/s) rather than the CODATA value; the
# Table-I aperture N = 23.0610 m maps to M = 99 either way.
C_LIGHT = 3.0e8

DEFAULT_MAX_RETRIES = 10_000

SUBARRAYS = 3  # S: side subarray, central subarray, side subarray
GROUPS = 2     # L: user groups, each served by one side plus the central one


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array split into `SUBARRAYS` contiguous subarrays."""

    M: int
    spacing: float
    positions: np.ndarray  # (M,) antenna positions along the array axis [m]
    N: float               # physical array length, M * spacing [m]
    subarray_of: np.ndarray  # (M,) antenna index -> subarray index 0, 1 or 2

    @property
    def M_s(self) -> int:
        return self.M // SUBARRAYS


@dataclass(frozen=True)
class UserLayout:
    """Planar user positions and user-antenna distances (groups: `Scenario`)."""

    K: int
    positions_2d: np.ndarray  # (K, 2) [m]
    distances: np.ndarray    # (K, M) Euclidean user-antenna distances [m]


@dataclass(frozen=True)
class VisibilityRegion:
    """Interval of the array over which a user's channel is nonzero."""

    center: float
    length: float
    visible: np.ndarray  # (M,) boolean mask, diagonal of the indicator matrix


def build_geometry(M: int, carrier_hz: float,
                   spacing_wavelengths: float = 2.0) -> ArrayGeometry:
    """Build the ULA with wavelength-derived spacing and a contiguous partition."""
    if M <= 0:
        raise ConfigurationError(f"M must be positive, got M={M}")
    if M % SUBARRAYS != 0:
        raise ConfigurationError(
            f"antenna count M={M} is not divisible by S={SUBARRAYS}")
    if carrier_hz <= 0:
        raise ConfigurationError(f"carrier frequency must be positive, got {carrier_hz}")
    if spacing_wavelengths <= 0:
        raise ConfigurationError(
            f"antenna spacing must be positive, got {spacing_wavelengths} wavelengths")
    wavelength = C_LIGHT / carrier_hz
    spacing = spacing_wavelengths * wavelength
    positions = np.arange(M) * spacing
    subarray_of = np.repeat(np.arange(SUBARRAYS), M // SUBARRAYS)
    return ArrayGeometry(M=M, spacing=spacing, positions=positions,
                         N=M * spacing, subarray_of=subarray_of)


def antennas_for_length(N: float, spacing: float) -> int:
    """Largest multiple of S whose aperture M*spacing does not exceed N."""
    if N <= 0 or spacing <= 0:
        raise ConfigurationError(
            f"need positive N and spacing; got N={N}, spacing={spacing}")
    m_max = int(np.floor(N / spacing + 1e-9))
    M = (m_max // SUBARRAYS) * SUBARRAYS
    if M <= 0:
        raise ConfigurationError(
            f"aperture N={N} m too short for S={SUBARRAYS} at spacing {spacing} m")
    return M


def drop_users(rng: np.random.Generator, K: int, cell_side: float,
               min_dist: float, geometry: ArrayGeometry,
               max_retries: int = DEFAULT_MAX_RETRIES) -> UserLayout:
    """Place K users uniformly in the cell, at least min_dist from every antenna.

    K must split evenly into the `GROUPS` user groups.
    """
    if cell_side <= 0:
        raise ConfigurationError(f"cell_side must be positive, got {cell_side}")
    if K <= 0 or K % GROUPS != 0:
        raise ConfigurationError(f"user count K={K} is not divisible by L={GROUPS}")
    diagonal = np.hypot(cell_side, cell_side)
    if min_dist >= diagonal:
        raise ConfigurationError(
            f"min_dist={min_dist} m exceeds the cell diagonal {diagonal:.3f} m")

    positions = np.empty((K, 2))
    distances = np.empty((K, geometry.M))
    ax = geometry.positions
    for k in range(K):
        for _ in range(max_retries):
            p = rng.uniform(0.0, cell_side, size=2)
            d = np.hypot(p[0] - ax, p[1])
            if d.min() >= min_dist:
                positions[k] = p
                distances[k] = d
                break
        else:
            raise GeometryInfeasibleError(
                f"could not place user {k} at min_dist={min_dist} m "
                f"after {max_retries} attempts")
    return UserLayout(K=K, positions_2d=positions, distances=distances)


def sample_vr(rng: np.random.Generator, geometry: ArrayGeometry,
              mu_l: float, sigma_l: float,
              required: np.ndarray | None = None,
              max_retries: int = DEFAULT_MAX_RETRIES) -> VisibilityRegion:
    """Sample a visibility region: center uniform on [0, N], log-normal length.

    mu_l is the mean length on the linear scale, so the log-length has mean
    log(mu_l) - sigma_l^2 / 2.  When `required` is given, draws are rejected
    until the region covers at least one antenna of that mask (the user's
    row of `Scenario.serving`), so no user ends up with an all-zero effective
    channel.
    """
    if sigma_l <= 0:
        raise ConfigurationError(f"sigma_l must be positive, got {sigma_l}")
    if mu_l <= 0:
        raise ConfigurationError(f"mean VR length must be positive, got {mu_l}")
    mu = np.log(mu_l) - 0.5 * sigma_l ** 2

    pos = geometry.positions
    needed = np.ones(geometry.M, dtype=bool) if required is None else required
    if not needed.any():
        raise ConfigurationError("required mask excludes every antenna")
    for _ in range(max_retries):
        center = rng.uniform(0.0, geometry.N)
        length = rng.lognormal(mean=mu, sigma=sigma_l)
        lo = max(0.0, center - length / 2.0)
        hi = min(geometry.N, center + length / 2.0)
        visible = (pos >= lo) & (pos <= hi)
        # An all-invisible draw would zero the user's effective channel row;
        # resample until the region reaches an antenna that can serve them.
        if (visible & needed).any():
            return VisibilityRegion(center=center, length=length, visible=visible)
    raise GeometryInfeasibleError(
        f"no visible antenna after {max_retries} VR draws")
