"""Monte-Carlo scenario assembly: one object per (config, M) holding the
fixed pieces, plus a fast per-trial channel draw.

Per subarray the covariance block is D_s R_s D_s with R_s the (shared)
Toeplitz correlation block, so a draw with that law is the masked product
of the precomputed R_s^{1/2} with a white vector.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import (assemble_from_user_channels, build_correlation, path_loss,
                      psd_sqrt)
from .config import (ChannelConfig, ExperimentConfig, UsersConfig,
                     build_geometry_from_config)
from .geometry import ArrayGeometry, UserLayout, drop_users, sample_vr


@dataclass(frozen=True)
class Scenario:
    geometry: ArrayGeometry
    users: UsersConfig      # copies of the config sections, taken when built
    channel: ChannelConfig
    Rsub_sqrt: np.ndarray  # (M_s, M_s) square root of the subarray correlation block

    @property
    def K(self) -> int:
        return self.users.K

    @property
    def vr_mu(self) -> float:
        """Mean VR length: the configured fraction of the aperture N."""
        return self.channel.vr_mu_frac * self.geometry.N


@dataclass(frozen=True)
class TrialDraw:
    layout: UserLayout
    vr_masks: np.ndarray  # (K, M) boolean
    realization: object   # ChannelRealization, gain-normalized when configured


def build_scenario(cfg: ExperimentConfig, M: int | None = None) -> Scenario:
    geometry = build_geometry_from_config(cfg, M=M)
    Rsub = build_correlation(geometry.M_s, cfg.channel.rho)
    return Scenario(geometry=geometry, users=replace(cfg.users),
                    channel=replace(cfg.channel), Rsub_sqrt=psd_sqrt(Rsub))


def draw_trial(scenario: Scenario, rng: np.random.Generator) -> TrialDraw:
    geo, users, ch = scenario.geometry, scenario.users, scenario.channel
    K, L, M, S, Ms = users.K, users.L, geo.M, geo.S, geo.M_s
    layout = drop_users(rng, K, L, users.cell_side, users.min_dist, geo)
    # Group l is served by its side subarray plus the shared central one;
    # each user's VR must reach at least one of those antennas.
    group_support = np.empty((L, M), dtype=bool)
    for l in range(L):
        group_support[l] = ((geo.subarray_of == l if l == 0
                             else geo.subarray_of == S - 1)
                            | (geo.subarray_of == 1))
    masks = np.empty((K, M), dtype=bool)
    for k in range(K):
        vr = sample_vr(rng, geo, scenario.vr_mu, ch.vr_sigma,
                       required=group_support[layout.group_of[k]])
        masks[k] = vr.visible
    W = path_loss(layout.distances, ch.omega, ch.nu)

    z = (rng.standard_normal((K, S, Ms))
         + 1j * rng.standard_normal((K, S, Ms))) / np.sqrt(2.0)
    hbar = np.einsum("ij,ksj->ksi", scenario.Rsub_sqrt, z).reshape(K, M)
    h_users = np.sqrt(W) * masks * hbar
    realization = assemble_from_user_channels(h_users, geo, layout)
    if ch.normalize_gain:
        # Mean per-user gain (M / gain_ref_m)^gain_exponent: unity at the
        # reference array.  The default exponent 2 models a per-antenna power
        # budget (radiated power ~ M) on top of the aperture gain (~ M).
        target = K * (M / ch.gain_ref_m) ** ch.gain_exponent
        fro2 = float(np.vdot(realization.H, realization.H).real)
        realization = realization.scaled(float(np.sqrt(target / fro2)))
    return TrialDraw(layout=layout, vr_masks=masks, realization=realization)
