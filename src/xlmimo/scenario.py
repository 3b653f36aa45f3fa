"""Monte-Carlo scenario assembly: one object per (config, M) holding the
fixed pieces, plus a fast per-trial channel draw.

The topology is a model constant (S = 3, L = 2): the first K/2 users form
group 1, served by side subarray 1 and the central one; the rest form group
2, served by the central subarray and side subarray 2.

Per subarray the covariance block is D_s R_s D_s with R_s the (shared)
Toeplitz correlation block, so a draw with that law is the masked product
of the precomputed R_s^{1/2} with a white vector.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import (assemble_from_user_channels, build_correlation, path_loss,
                      psd_sqrt)
from .config import ChannelConfig, ExperimentConfig
from .geometry import (GROUPS, SUBARRAYS, ArrayGeometry, build_geometry,
                       drop_users, sample_vr)


@dataclass(frozen=True)
class Scenario:
    geometry: ArrayGeometry
    channel: ChannelConfig  # a copy of the config section, taken when built
    Rsub_sqrt: np.ndarray  # (M_s, M_s) square root of the subarray correlation block
    K: int
    K1: int                # users in group 1, the first K/2
    serving: np.ndarray    # (K, M) boolean: the antennas serving each user's group

    @property
    def vr_mu(self) -> float:
        """Mean VR length: the configured fraction of the aperture N."""
        return self.channel.vr_mu_frac * self.geometry.N


@dataclass(frozen=True)
class TrialDraw:
    vr_masks: np.ndarray  # (K, M) boolean
    realization: object   # ChannelRealization, gain-normalized when configured


def build_scenario(cfg: ExperimentConfig, M: int | None = None) -> Scenario:
    geometry = build_geometry(cfg.geometry.M if M is None else M)
    Rsub = build_correlation(geometry.M_s, cfg.channel.rho)
    K1, sub = cfg.users.K // GROUPS, geometry.subarray_of
    in_group1 = np.arange(cfg.users.K)[:, None] < K1
    serving = np.where(in_group1, sub == 0, sub == SUBARRAYS - 1) | (sub == 1)
    return Scenario(geometry=geometry, channel=replace(cfg.channel),
                    Rsub_sqrt=psd_sqrt(Rsub), K=cfg.users.K, K1=K1,
                    serving=serving)


# Mean per-user gain (M / GAIN_REF_M)^GAIN_EXPONENT: unity at the reference
# array.  The exponent 2 models a per-antenna power budget (radiated power
# ~ M) on top of the aperture gain (~ M).
GAIN_REF_M = 99
GAIN_EXPONENT = 2.0


def draw_trial(scenario: Scenario, rng: np.random.Generator) -> TrialDraw:
    geo, ch = scenario.geometry, scenario.channel
    K, M, Ms = scenario.K, geo.M, geo.M_s
    distances = drop_users(rng, K, geo)
    # Each user's VR must reach at least one antenna serving its group.
    masks = sample_vr(rng, geo, scenario.vr_mu, ch.vr_sigma,
                      required=scenario.serving)
    W = path_loss(distances)

    # White CN(0, I) fading z per user and subarray, coloured as z @ R_s^{1/2}.T;
    # R_s^{1/2} is real, so one real product colours both parts of z.
    zri = rng.standard_normal((2 * K * SUBARRAYS, Ms)) @ scenario.Rsub_sqrt.T
    re, im = zri.reshape(2, K, M)
    h_users = (np.sqrt(W / 2.0) * masks) * (re + 1j * im)
    realization = assemble_from_user_channels(h_users, scenario.K1)
    if ch.normalize_gain:
        target = K * (M / GAIN_REF_M) ** GAIN_EXPONENT
        fro2 = sum(float(np.vdot(B, B).real) for B in realization.blocks())
        scale = float(np.sqrt(target / fro2))
        for B in realization.blocks():
            B *= scale
    return TrialDraw(vr_masks=masks, realization=realization)
