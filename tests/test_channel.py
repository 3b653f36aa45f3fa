"""Channel: path loss, correlation, PSD square root, block assembly.

The channel law itself is tested on the live sampler in test_scenario.py.
"""

import numpy as np
import pytest

from helpers import stacked
from xlmimo import channel
from xlmimo.channel import (ChannelRealization, assemble_from_user_channels,
                            build_correlation, path_loss, psd_sqrt)
from xlmimo.errors import AssemblyError, ConfigurationError
from xlmimo.seeding import seed_stream


class TestPathLoss:
    def test_reference_distance(self):
        w = path_loss(np.full(9, 30.0))
        np.testing.assert_allclose(w, 1.48148148e-4, rtol=1e-6)

    def test_arithmetic(self):
        d = np.array([1.0, 2.0])
        np.testing.assert_array_equal(path_loss(d),
                                      channel.OMEGA * d ** -channel.NU)
        np.testing.assert_allclose(path_loss(d), [4.0, 0.5])

    def test_zero_exponent(self, monkeypatch):
        # The path-loss constants are read when the gain is computed.
        monkeypatch.setattr(channel, "OMEGA", 1.0)
        monkeypatch.setattr(channel, "NU", 0.0)
        np.testing.assert_array_equal(path_loss(np.array([3.0, 7.0])),
                                      [1.0, 1.0])

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            path_loss(np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            path_loss(np.array([-1.0]))


class TestCorrelation:
    def test_uncorrelated_identity(self, monkeypatch):
        # RHO is read when the matrix is built.
        monkeypatch.setattr(channel, "RHO", 0.0)
        np.testing.assert_array_equal(build_correlation(4), np.eye(4))

    def test_exponential_values(self):
        R = build_correlation(3)
        np.testing.assert_allclose(
            R, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9])
    def test_positive_definite_at_desk_scale(self, rho, monkeypatch):
        monkeypatch.setattr(channel, "RHO", rho)
        vals = np.linalg.eigvalsh(build_correlation(64))
        assert vals[0] > 0

    @pytest.mark.parametrize("M_s", [1, 2, 33, 88, 200])
    def test_spectrum_within_kms_bounds(self, M_s):
        # Exponential correlation has its spectrum inside
        # ((1 - RHO) / (1 + RHO), (1 + RHO) / (1 - RHO)) = (1/3, 3).
        vals = np.linalg.eigvalsh(build_correlation(M_s))
        assert 1 / 3 < vals[0] and vals[-1] < 3


class TestPsdSqrt:
    def test_square_recovers_matrix(self):
        R = build_correlation(8)
        A = psd_sqrt(R)
        np.testing.assert_allclose(A @ A, R, atol=1e-12)


class TestBlockAssembly:
    def test_stacked_zero_pattern(self):
        rng = seed_stream(0, 0)
        H1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        Hc = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        H2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        real = ChannelRealization(H1, Hc, H2)
        assert real.H.shape == (9, 4)
        np.testing.assert_array_equal(real.H[:3, 2:], 0.0)
        np.testing.assert_array_equal(real.H[6:, :2], 0.0)
        np.testing.assert_array_equal(real.H[:3, :2], H1)
        np.testing.assert_array_equal(real.H[3:6], Hc)
        np.testing.assert_array_equal(real.H[6:, 2:], H2)

    def test_column_count_mismatch(self):
        with pytest.raises(AssemblyError):
            ChannelRealization(np.zeros((3, 2)), np.zeros((3, 5)),
                               np.zeros((3, 2)))

    def test_side_block_shape_mismatch(self):
        # The side blocks solve as one stack: each has M/3 antennas and K/2
        # users, although K = K1 + K2 would also hold with 1 + 2.
        with pytest.raises(AssemblyError):
            ChannelRealization(np.zeros((4, 1)), np.zeros((4, 3)),
                               np.zeros((4, 2)))
        with pytest.raises(AssemblyError):
            ChannelRealization(np.zeros((2, 3, 2)), np.zeros((2, 3, 4)),
                               np.zeros((2, 4, 2)))

    def test_reference_shapes(self):
        real = ChannelRealization(np.zeros((33, 16)), np.zeros((33, 32)),
                                  np.zeros((33, 16)))
        assert real.H.shape == (99, 32)
        assert (real.K1, real.K - real.K1, real.K) == (16, 16, 32)

    def test_stack_of_realizations(self):
        rng = np.random.default_rng(1)
        reals = [ChannelRealization(*(rng.standard_normal(shape)
                                      for shape in ((3, 2), (3, 4), (3, 2))))
                 for _ in range(3)]
        stack = stacked(reals)
        assert stack.H1.shape == (3, 3, 2) and stack.H.shape == (3, 9, 4)
        assert (stack.K1, stack.K - stack.K1, stack.K) == (2, 2, 4)
        for i, real in enumerate(reals):
            np.testing.assert_array_equal(stack.H[i], real.H)

    def test_trial_dimension_mismatch(self):
        with pytest.raises(AssemblyError):
            ChannelRealization(np.zeros((2, 3, 2)), np.zeros((3, 3, 4)),
                               np.zeros((2, 3, 2)))

    def test_from_user_channels(self):
        # 4 users x 6 antennas: users 0-1 form group 1, antennas 2-3 are
        # the central subarray.
        h = np.arange(24).reshape(4, 6) * (1 + 1j)
        real = assemble_from_user_channels(h, 2)
        np.testing.assert_array_equal(real.H1, h[:2, :2].T)
        np.testing.assert_array_equal(real.Hc, h[:, 2:4].T)
        np.testing.assert_array_equal(real.H2, h[2:, 4:].T)

    def test_from_user_channels_of_a_stack(self):
        # Leading trial axes pass through; each block is C-contiguous, as a
        # stack of each trial's blocks is.
        h = np.arange(72).reshape(3, 4, 6) * (1 - 1j)
        real = assemble_from_user_channels(h, 2)
        one = stacked([assemble_from_user_channels(x, 2) for x in h])
        for block, ref in zip(real.blocks(), one.blocks()):
            assert block.flags.c_contiguous
            np.testing.assert_array_equal(block, ref)
