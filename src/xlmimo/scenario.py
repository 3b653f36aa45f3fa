"""Monte-Carlo scenario assembly: one object per (config, M) holding the
fixed pieces, plus a channel draw of a batch of trials.

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

from .channel import (GAIN_EXPONENT, GAIN_REF_M, ChannelRealization,
                      assemble_from_user_channels, build_correlation, path_loss,
                      psd_sqrt)
from .config import ExperimentConfig
from .geometry import (GROUPS, SUBARRAYS, ArrayGeometry, build_geometry,
                       drop_users, sample_vr)
from .linsolve import sq_norms


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
    vr_masks: np.ndarray  # (..., K, M) boolean
    realization: object   # ChannelRealization (blocks (..., M_s, K_i)), gain-normalized


def build_scenario(cfg: ExperimentConfig, M: int | None = None) -> Scenario:
    geometry = build_geometry(cfg.geometry.M if M is None else M)
    K1, sub = cfg.users.K // GROUPS, geometry.subarray_of
    in_group1 = np.arange(cfg.users.K)[:, None] < K1
    serving = np.where(in_group1, sub == 0, sub == SUBARRAYS - 1) | (sub == 1)
    return Scenario(geometry=geometry,
                    vr_mu=cfg.channel.vr_mu_frac * geometry.N,
                    Rsub_sqrt=psd_sqrt(build_correlation(geometry.M_s)),
                    K=cfg.users.K, K1=K1, serving=serving)


def _user_channels(scenario: Scenario, rngs):
    """Each trial's (K, M) VR masks and unnormalized (K, M) user channel
    rows, stacked over `rngs`."""
    geo = scenario.geometry
    K, M, Ms = scenario.K, geo.M, geo.M_s
    amp = path_loss(drop_users(rngs, K, geo))
    # Each user's VR must reach at least one antenna serving its group.
    masks = sample_vr(rngs, geo, scenario.vr_mu, scenario.serving)
    # sqrt(W / 2) on the visible antennas, in place: the (B, K, M) arrays
    # set the draw's peak memory.
    amp /= 2.0
    np.sqrt(amp, out=amp)
    amp *= masks

    # White CN(0, I) fading z per user and subarray, coloured as z @ R_s^{1/2}.T;
    # R_s^{1/2} is real, so one real product colours both parts of z.  Each
    # trial has its own product, since GEMM rounding may depend on the
    # stack, and writes its h = amp * (re + 1j im) in place.
    h_users = np.empty(amp.shape, dtype=complex)
    for rng, a, h in zip(rngs, amp, h_users):
        re, im = (rng.standard_normal((2 * K * SUBARRAYS, Ms))
                  @ scenario.Rsub_sqrt.T).reshape(2, K, M)
        np.multiply(1j, im, out=h)
        np.add(re, h, out=h)
        np.multiply(a, h, out=h)
    return masks, h_users


def draw_batch(scenario: Scenario, rngs) -> TrialDraw:
    """One trial per generator of `rngs`, stacked on a leading trial axis.

    Each trial draws from its own generator, in the order of a batch of one:
    its user-drop rounds, its VR rounds, then its fading normals.
    """
    K, M = scenario.K, scenario.geometry.M
    masks, h_users = _user_channels(scenario, rngs)
    realization = assemble_from_user_channels(h_users, scenario.K1)
    del h_users  # the full rows, unserved third included, before calibrating
    target = K * (M / GAIN_REF_M) ** GAIN_EXPONENT
    n1, nc, n2 = (sq_norms(B) for B in realization.blocks())
    scale = np.sqrt(target / (n1 + nc + n2))[:, None, None]
    for B in realization.blocks():
        B *= scale
    return TrialDraw(vr_masks=masks, realization=realization)


def draw_trial(scenario: Scenario, rng: np.random.Generator) -> TrialDraw:
    """One trial: the `draw_batch` of the one generator `rng`."""
    draw = draw_batch(scenario, [rng])
    return TrialDraw(vr_masks=draw.vr_masks[0], realization=ChannelRealization(
        *(B[0] for B in draw.realization.blocks())))
