"""Scenario assembly: trial draws, VR support guarantees, gain calibration."""

import numpy as np
import pytest

from helpers import small_config
from xlmimo.channel import (assemble_from_user_channels, build_correlation,
                            path_loss)
from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.geometry import drop_users, sample_vr
from xlmimo.scenario import build_scenario, draw_batch, draw_trial
from xlmimo.seeding import seed_stream


def _served(geo, K, k):
    """Antennas serving user k of K: the first K/2 users are served by the
    first and central thirds of the array, the others by the central and
    last thirds."""
    Ms = geo.M // 3
    served = np.zeros(geo.M, dtype=bool)
    served[Ms:2 * Ms] = True
    if k < K // 2:
        served[:Ms] = True
    else:
        served[2 * Ms:] = True
    return served


class TestBuildScenario:
    def test_defaults(self):
        scenario = build_scenario(ExperimentConfig())
        assert scenario.geometry.M == 99
        assert scenario.K == 32
        assert scenario.vr_mu == pytest.approx(0.1 * scenario.geometry.N)
        assert scenario.Rsub_sqrt.shape == (33, 33)

    def test_m_override(self):
        scenario = build_scenario(ExperimentConfig(), M=132)
        assert scenario.geometry.M == 132
        assert scenario.geometry.M_s == 44

    @pytest.mark.parametrize("M, K", [(99, 32), (132, 32), (9, 4)])
    def test_serving_masks_match_group_split(self, M, K):
        cfg = ExperimentConfig()
        apply_overrides(cfg, [f"users.K={K}"])
        scenario = build_scenario(cfg, M=M)
        assert scenario.serving.shape == (K, M)
        assert scenario.K1 == K // 2
        for k in range(K):
            np.testing.assert_array_equal(scenario.serving[k],
                                          _served(scenario.geometry, K, k))

    def test_later_config_edits_do_not_reach_scenario(self):
        cfg = ExperimentConfig()
        scenario = build_scenario(cfg)
        apply_overrides(cfg, ["users.K=4", "channel.vr_mu_frac=3.0"])
        assert scenario.K == 32
        assert scenario.vr_mu == pytest.approx(0.1 * scenario.geometry.N)


class TestDrawBatch:
    """A batch draws each trial as a batch of one, from its own stream."""

    @pytest.mark.parametrize("M", [99, 264])
    @pytest.mark.parametrize("B", [1, 2, 5])
    def test_each_trial_as_drawn_alone(self, M, B):
        scenario = build_scenario(ExperimentConfig(), M=M)
        rngs = [seed_stream(6, M, t) for t in range(B)]
        batch = draw_batch(scenario, rngs)
        assert batch.vr_masks.shape == (B, scenario.K, M)
        assert batch.realization.Hc.shape == (B, M // 3, scenario.K)
        for t, rng in enumerate(rngs):
            alone = seed_stream(6, M, t)
            one = draw_trial(scenario, alone)
            np.testing.assert_array_equal(batch.vr_masks[t], one.vr_masks)
            for block, ref in zip(batch.realization.blocks(),
                                  one.realization.blocks()):
                np.testing.assert_array_equal(block[t], ref)
            # The stream is left where a draw alone leaves it, for the bits
            # and symbols drawn after it.
            assert rng.bit_generator.state == alone.bit_generator.state


class TestDrawTrial:
    def setup_method(self):
        self.cfg = ExperimentConfig()
        self.scenario = build_scenario(self.cfg)

    def test_deterministic(self):
        a = draw_trial(self.scenario, seed_stream(0, 4))
        b = draw_trial(self.scenario, seed_stream(0, 4))
        np.testing.assert_array_equal(a.realization.H, b.realization.H)
        np.testing.assert_array_equal(a.vr_masks, b.vr_masks)

    def test_every_user_reaches_serving_subarrays(self):
        geo = self.scenario.geometry
        for trial in range(10):
            draw = draw_trial(self.scenario, seed_stream(1, trial))
            for k in range(self.scenario.K):
                support = _served(geo, self.scenario.K, k)
                assert (draw.vr_masks[k] & support).any()

    def test_out_of_vr_energy_exactly_zero(self):
        draw = draw_trial(self.scenario, seed_stream(2, 0))
        H = draw.realization.H
        for k in range(self.scenario.K):
            np.testing.assert_array_equal(H[~draw.vr_masks[k], k], 0.0)

    def test_gain_normalization_targets(self):
        for M, expected in ((99, 32.0), (132, 32.0 * (132 / 99) ** 2)):
            scenario = build_scenario(self.cfg, M=M)
            draw = draw_trial(scenario, seed_stream(3, 0))
            fro2 = float(np.vdot(draw.realization.H, draw.realization.H).real)
            assert fro2 == pytest.approx(expected, rel=1e-12)

    def test_block_zero_pattern(self):
        draw = draw_trial(self.scenario, seed_stream(4, 0))
        H = draw.realization.H
        np.testing.assert_array_equal(H[:33, 16:], 0.0)
        np.testing.assert_array_equal(H[66:, :16], 0.0)

    def test_masked_subarray_is_exact_zero(self):
        # Zero exactly where the VR or the group's subarrays exclude an
        # antenna, nonzero everywhere else.
        geo = self.scenario.geometry
        for trial in range(5):
            draw = draw_trial(self.scenario, seed_stream(5, trial))
            H = draw.realization.H
            for k in range(self.scenario.K):
                live = _served(geo, self.scenario.K, k) & draw.vr_masks[k]
                np.testing.assert_array_equal(H[~live, k], 0.0)
                assert np.all(H[live, k] != 0)

    def test_sample_covariance_matches_theta(self):
        # Before the gain calibration, with every antenna visible,
        # h_k / sqrt(w_k) on the served antennas is CN(0, blockdiag(R_s, R_s)).
        scenario = build_scenario(small_config())
        geo, K = scenario.geometry, scenario.K
        target = np.kron(np.eye(2), build_correlation(geo.M_s))
        acc = np.zeros_like(target, dtype=complex)
        n = 0
        for trial in range(5000):
            draw = draw_trial(scenario, seed_stream(2, trial))
            # Replay the draw's stream in its order (drop, VR, white
            # normals) to rebuild the draw before its calibration.
            rng = seed_stream(2, trial)
            W = path_loss(drop_users([rng], K, geo)[0])
            masks = sample_vr([rng], geo, scenario.vr_mu, scenario.serving)[0]
            z = (rng.standard_normal((6 * K, geo.M_s))
                 @ scenario.Rsub_sqrt.T).reshape(2, K, geo.M)
            H = assemble_from_user_channels(
                np.sqrt(W / 2.0) * masks * (z[0] + 1j * z[1]), scenario.K1).H
            # The calibration scales the whole draw by one number.
            scale = np.linalg.norm(draw.realization.H) / np.linalg.norm(H)
            np.testing.assert_allclose(draw.realization.H, scale * H,
                                       rtol=1e-12, atol=0)
            for k in range(K):
                served = _served(geo, K, k)
                if not draw.vr_masks[k][served].all():
                    continue  # the VR law is independent of the fading
                h = H[served, k] / np.sqrt(W[k, served])
                acc += np.outer(h, h.conj())
                n += 1
        assert n > 19000
        err = np.linalg.norm(acc / n - target) / np.linalg.norm(target)
        assert err < 0.03
