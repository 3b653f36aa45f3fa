"""Monte-Carlo scenario assembly: one object per (config, M) holding the
fixed pieces, plus a fast per-trial channel draw.

The topology is a model constant (S = 3, L = 2): the first K/2 users form
group 1, served by side subarray 1 and the central one; the rest form group
2, served by the central subarray and side subarray 2.

Per subarray the covariance block is D_s R_s D_s with R_s the (shared)
Toeplitz correlation block, so a draw with that law is the masked product
of the precomputed R_s^{1/2} with a white vector.  Every draw is then
scaled to the mean per-user gain of its array size.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (GAIN_EXPONENT, GAIN_REF_M, assemble_from_user_channels,
                      build_correlation, path_loss, psd_sqrt)
from .config import ExperimentConfig
from .geometry import (GROUPS, SUBARRAYS, ArrayGeometry, build_geometry,
                       drop_users, sample_vr)


@dataclass(frozen=True)
class Scenario:
    geometry: ArrayGeometry
    vr_mu: float           # mean VR length: channel.vr_mu_frac of the aperture N
    Rsub_sqrt: np.ndarray  # (M_s, M_s) square root of the subarray correlation block
    K: int
    K1: int                # users in group 1, the first K/2
    serving: np.ndarray    # (K, M) boolean: the antennas serving each user's group


@dataclass(frozen=True)
class TrialDraw:
    vr_masks: np.ndarray  # (K, M) boolean
    realization: object   # ChannelRealization, gain-normalized


def build_scenario(cfg: ExperimentConfig, M: int | None = None) -> Scenario:
    geometry = build_geometry(cfg.geometry.M if M is None else M)
    K1, sub = cfg.users.K // GROUPS, geometry.subarray_of
    in_group1 = np.arange(cfg.users.K)[:, None] < K1
    serving = np.where(in_group1, sub == 0, sub == SUBARRAYS - 1) | (sub == 1)
    return Scenario(geometry=geometry,
                    vr_mu=cfg.channel.vr_mu_frac * geometry.N,
                    Rsub_sqrt=psd_sqrt(build_correlation(geometry.M_s)),
                    K=cfg.users.K, K1=K1, serving=serving)


def draw_trial(scenario: Scenario, rng: np.random.Generator) -> TrialDraw:
    geo = scenario.geometry
    K, M, Ms = scenario.K, geo.M, geo.M_s
    distances = drop_users(rng, K, geo)
    # Each user's VR must reach at least one antenna serving its group.
    masks = sample_vr(rng, geo, scenario.vr_mu, scenario.serving)
    W = path_loss(distances)

    # White CN(0, I) fading z per user and subarray, coloured as z @ R_s^{1/2}.T;
    # R_s^{1/2} is real, so one real product colours both parts of z.
    zri = rng.standard_normal((2 * K * SUBARRAYS, Ms)) @ scenario.Rsub_sqrt.T
    re, im = zri.reshape(2, K, M)
    h_users = (np.sqrt(W / 2.0) * masks) * (re + 1j * im)
    realization = assemble_from_user_channels(h_users, scenario.K1)
    target = K * (M / GAIN_REF_M) ** GAIN_EXPONENT
    fro2 = sum(float(np.vdot(B, B).real) for B in realization.blocks())
    scale = float(np.sqrt(target / fro2))
    for B in realization.blocks():
        B *= scale
    return TrialDraw(vr_masks=masks, realization=realization)
