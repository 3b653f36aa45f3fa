"""Physical ULA construction, subarray partition, user drop and visibility regions.

The base-station array lies along one edge of the square cell, from (0, 0)
towards (N, 0); users live in the square [0, CELL_SIDE]^2.  The array, the
cell, S = 3, L = 2 and the VR length spread are model constants, not settings.
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
VR_SIGMA = 0.1     # log-normal spread of the visibility region length


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


def _per_trial(rngs, pending, draw) -> list:
    """One round of candidates: `draw(rng, n)` for each trial's generator
    with its n > 0 pending rows (a row of `pending`), in trial order."""
    return [draw(rng, n) for rng, n in zip(rngs, pending.sum(axis=1).tolist())
            if n]


def drop_users(rngs, K: int, geometry: ArrayGeometry) -> np.ndarray:
    """Place K users uniformly in the cell, at least MIN_DIST from every
    antenna, once per generator of `rngs`; returns the (len(rngs), K, M)
    user-antenna distances [m].

    Rejection sampling over all users at once: each round draws, from each
    trial's own generator, one candidate (uniform((n, 2))) for each of its n
    users still unplaced, and a user keeps its first accepted candidate.  A
    trial's draws are those of a batch of one.  K must split evenly into the
    `GROUPS` user groups.
    """
    if K <= 0 or K % GROUPS != 0:
        raise ConfigurationError(f"user count K={K} is not divisible by L={GROUPS}")

    distances = np.empty((len(rngs), K, geometry.M))
    ax = geometry.positions
    pending = np.ones((len(rngs), K), dtype=bool)
    for _ in range(MAX_RETRIES):
        p = np.concatenate(_per_trial(
            rngs, pending,
            lambda rng, n: rng.uniform(0.0, CELL_SIDE, size=(n, 2))))
        d = p[:, :1] - ax
        np.hypot(d, p[:, 1:], out=d)
        # Every pending row takes its candidate; a rejected one is
        # overwritten in a later round.
        trial, user = np.nonzero(pending)
        distances[trial, user] = d
        ok = d.min(axis=1) >= MIN_DIST
        pending[trial[ok], user[ok]] = False
        if not pending.any():
            return distances
    trial, user = np.argwhere(pending)[0]
    raise GeometryInfeasibleError(
        f"could not place user {user} of draw {trial} at {MIN_DIST} m from "
        f"the array after {MAX_RETRIES} attempts")


def sample_vr(rngs, geometry: ArrayGeometry, mu_l: float,
              required: np.ndarray) -> np.ndarray:
    """Sample visibility regions, center uniform on [0, N] and log-normal
    length, once per generator of `rngs`; returns the (len(rngs), R, M)
    boolean masks of the antennas each covers.

    mu_l is the mean length on the linear scale, so the log-length has mean
    log(mu_l) - VR_SIGMA^2 / 2 and spread VR_SIGMA.  `required` (R, M)
    asks for one region per mask row (a user's row of `Scenario.serving`),
    the same rows in every trial.  A region is redrawn until it covers at
    least one antenna of its row, so no user ends up with an all-zero
    effective channel.  Each round draws, from each trial's own generator,
    uniform(n) centers, then lognormal(n) lengths, for its n rows still
    pending; a row keeps its first accepted draw.  A trial's draws are those
    of a batch of one.
    """
    if mu_l <= 0:
        raise ConfigurationError(f"mean VR length must be positive, got {mu_l}")
    mu = np.log(mu_l) - 0.5 * VR_SIGMA ** 2

    pos, N = geometry.positions, geometry.N
    rows = np.asarray(required, dtype=bool)
    if rows.ndim != 2 or rows.shape[1] != geometry.M:
        raise ConfigurationError(
            f"required mask shape {rows.shape} is not (rows, M={geometry.M})")
    if not rows.any(axis=1).all():
        raise ConfigurationError("required mask excludes every antenna")
    visible = np.empty((len(rngs), *rows.shape), dtype=bool)
    pending = np.ones(visible.shape[:2], dtype=bool)
    for _ in range(MAX_RETRIES):
        c, ln = map(np.concatenate, zip(*_per_trial(
            rngs, pending, lambda rng, n: (
                rng.uniform(0.0, N, size=n),
                rng.lognormal(mean=mu, sigma=VR_SIGMA, size=n)))))
        lo = np.maximum(0.0, c - ln / 2.0)
        hi = np.minimum(N, c + ln / 2.0)
        vis = (pos >= lo[:, None]) & (pos <= hi[:, None])
        trial, row = np.nonzero(pending)
        visible[trial, row] = vis
        # An all-invisible draw would zero the user's effective channel row;
        # resample until the region reaches an antenna that can serve them.
        ok = (vis & rows[row]).any(axis=1)
        pending[trial[ok], row[ok]] = False
        if not pending.any():
            return visible
    trial, row = np.argwhere(pending)[0]
    raise GeometryInfeasibleError(
        f"no visible antenna for user {row} (row of `required`) of draw "
        f"{trial} after {MAX_RETRIES} VR draws")
