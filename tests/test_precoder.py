"""RZF precoder blocks: regularized Gram, power control, iterative variants."""

import numpy as np
import pytest

from helpers import random_rhs, small_config, small_draw
from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.errors import (AssemblyError, ConfigurationError,
                           DegenerateChannelError)
from xlmimo.precoder import (assemble_precoder, build_precoder,
                             gram_regularized, rzf_direct, rzf_iterative,
                             solve_iterative)
from xlmimo.scenario import build_scenario, draw_trial
from xlmimo.seeding import seed_stream


class TestGramRegularized:
    def test_zero_channel(self):
        sys = gram_regularized(np.zeros((4, 3)), 0.5)
        np.testing.assert_array_equal(sys.P, 0.5 * np.eye(3))

    def test_identity_channel(self):
        sys = gram_regularized(np.eye(2), 1.0)
        np.testing.assert_array_equal(sys.P, 2.0 * np.eye(2))

    def test_min_eigenvalue_at_least_xi(self):
        H = random_rhs(np.random.default_rng(0), 8, 4)
        sys = gram_regularized(H, 0.25)
        assert np.linalg.eigvalsh(sys.P)[0] >= 0.25 - 1e-12

    def test_hermitian(self):
        H = random_rhs(np.random.default_rng(1), 8, 4)
        P = gram_regularized(H, 0.1).P
        np.testing.assert_array_equal(P, P.conj().T)

    def test_nonpositive_xi_rejected(self):
        with pytest.raises(ConfigurationError):
            gram_regularized(np.eye(2), 0.0)


class TestRzfDirect:
    def test_identity_closed_form(self):
        power = 3.0
        block = rzf_direct(np.eye(2), 1.0, power)
        np.testing.assert_allclose(block.F, 0.5 * np.eye(2), atol=1e-14)
        assert block.beta == pytest.approx(np.sqrt(power / 0.5))
        np.testing.assert_allclose(block.G, block.beta * 0.5 * np.eye(2))

    def test_power_identity(self):
        rng = np.random.default_rng(2)
        H = random_rhs(rng, 12, 6)
        block = rzf_direct(H, 0.3, 2.5)
        tr = float(np.vdot(block.G, block.G).real)
        assert tr == pytest.approx(2.5, rel=1e-10)

    def test_matched_filter_limit(self):
        rng = np.random.default_rng(3)
        H = random_rhs(rng, 10, 4)
        block = rzf_direct(H, 1e6, 1.0)
        g = block.G / np.linalg.norm(block.G)
        h = np.asarray(H, complex) / np.linalg.norm(H)
        assert np.linalg.norm(g - h) < 1e-3

    def test_zero_channel_degenerate(self):
        with pytest.raises(DegenerateChannelError):
            rzf_direct(np.zeros((4, 2)), 0.5, 1.0)


class TestRzfIterative:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.H = random_rhs(rng, 12, 6)

    def test_cg_finite_termination_matches_direct(self):
        exact = rzf_direct(self.H, 0.2, 1.0)
        approx = rzf_iterative(self.H, 0.2, 1.0, solver="cg", T=6)
        err = np.linalg.norm(approx.G - exact.G) / np.linalg.norm(exact.G)
        assert err < 1e-6

    @pytest.mark.parametrize("solver", ["gs", "jor", "cg", "jacpcg"])
    def test_power_identity_all_solvers(self, solver):
        block = rzf_iterative(self.H, 0.2, 4.0, solver=solver, T=3, omega=0.5,
                              pcg_variant="textbook")
        tr = float(np.vdot(block.G, block.G).real)
        assert tr == pytest.approx(4.0, rel=1e-10)

    def test_cg_error_non_increasing_in_t(self):
        exact = rzf_direct(self.H, 0.2, 1.0)
        errs = []
        for T in range(1, 7):
            approx = rzf_iterative(self.H, 0.2, 1.0, solver="cg", T=T)
            errs.append(np.linalg.norm(approx.G - exact.G))
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))

    def test_t_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            rzf_iterative(self.H, 0.2, 1.0, solver="cg", T=0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError):
            rzf_iterative(self.H, 0.2, 1.0, solver="sor", T=2)

    def test_solve_iterative_unknown_name(self):
        sys = gram_regularized(self.H, 0.2)
        with pytest.raises(ConfigurationError):
            solve_iterative(sys, "direct", 2)


class TestAssembly:
    def _blocks(self):
        b1 = rzf_direct(np.eye(3)[:, :2] + 0.1, 0.5, 1.0)
        bc = rzf_direct(np.ones((3, 4)) + np.eye(3, 4), 0.5, 1.0)
        b2 = rzf_direct(np.eye(3)[:, :2] + 0.2, 0.5, 1.0)
        return b1, bc, b2

    def test_zero_blocks_and_round_trip(self):
        b1, bc, b2 = self._blocks()
        pre = assemble_precoder(b1, bc, b2)
        assert pre.G.shape == (9, 4)
        np.testing.assert_array_equal(pre.G[:3, 2:], 0.0)
        np.testing.assert_array_equal(pre.G[6:, :2], 0.0)
        np.testing.assert_array_equal(pre.G[:3, :2], b1.G)
        np.testing.assert_array_equal(pre.G[3:6], bc.G)
        np.testing.assert_array_equal(pre.G[6:, 2:], b2.G)

    def test_central_split(self):
        b1, bc, b2 = self._blocks()
        pre = assemble_precoder(b1, bc, b2)
        np.testing.assert_array_equal(pre.Gc1, bc.G[:, :2])
        np.testing.assert_array_equal(pre.Gc2, bc.G[:, 2:])

    def test_shape_mismatch_rejected(self):
        b1, _, b2 = self._blocks()
        with pytest.raises(AssemblyError):
            # central block with 2 columns cannot serve K1 + K2 = 4 users
            assemble_precoder(b1, b1, b2)


class TestBuildPrecoder:
    @pytest.mark.parametrize("method", ["direct", "gs", "jor", "cg", "jacpcg"])
    def test_per_block_power_and_zero_pattern(self, method):
        cfg = small_config(**{"solver.omega": 0.5})
        _, draw = small_draw(cfg)
        real = draw.realization
        pre = build_precoder(real, xi=0.5, power=1.0, method=method, T=3,
                             omega=0.5, pcg_variant="textbook")
        for G in (pre.G1, pre.Gc, pre.G2):
            assert float(np.vdot(G, G).real) == pytest.approx(1.0, rel=1e-10)
        K1 = real.K1
        M1 = real.H1.shape[0]
        Mc = real.Hc.shape[0]
        np.testing.assert_array_equal(pre.G[:M1, K1:], 0.0)
        np.testing.assert_array_equal(pre.G[M1 + Mc:, :K1], 0.0)

    def test_library_defaults_are_config_defaults(self):
        # At 25 dB the "algorithm" PCG variant loses positivity on many of
        # these draws; the library default must be the config's variant.
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["power.snr_db=25"])
        scenario = build_scenario(cfg)
        xi, power, sol = cfg.power.xi, cfg.power.tx_power_watts, cfg.solver
        for trial in range(200):
            real = draw_trial(scenario, seed_stream(cfg.run.seed, trial)).realization
            for method in ("jor", "jacpcg"):
                lib = build_precoder(real, xi, power, method)
                ref = build_precoder(real, xi, power, method, T=sol.T,
                                     omega=sol.omega,
                                     pcg_variant=sol.pcg_variant)
                for a, b in zip((lib.G1, lib.Gc, lib.G2),
                                (ref.G1, ref.Gc, ref.G2)):
                    np.testing.assert_array_equal(a, b)
