"""RZF precoder blocks: regularized Gram, power control, iterative variants."""

import numpy as np
import pytest

from helpers import (explicit_precoder, random_rhs, small_config, small_draw,
                     stacked)
from xlmimo.channel import ChannelRealization, path_loss
from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.errors import (AssemblyError, ConfigurationError,
                           DegenerateChannelError, NotHpdError)
from xlmimo.linsolve import HpdSystem, jacpcg_solve, jor_solve, solve
from xlmimo.metrics import sinr_eq9
from xlmimo.precoder import CLASS_STEP, build_precoder, gram_regularized
from xlmimo.scenario import build_scenario, draw_batch, draw_trial
from xlmimo.seeding import seed_stream


def _blocks(pre):
    return pre.G1, pre.Gc, pre.G2


def _random_realization(seed):
    """Central block 12 x 6 serving two groups of 3, side blocks 12 x 3."""
    rng = np.random.default_rng(seed)
    Hc = random_rhs(rng, 12, 6)
    return ChannelRealization(random_rhs(rng, 12, 3), Hc,
                              random_rhs(rng, 12, 3))


class TestGramRegularized:
    def test_zero_channel(self):
        P = gram_regularized(np.zeros((4, 3)), 0.5)
        np.testing.assert_array_equal(P, 0.5 * np.eye(3))

    def test_identity_channel(self):
        P = gram_regularized(np.eye(2), 1.0)
        np.testing.assert_array_equal(P, 2.0 * np.eye(2))

    def test_min_eigenvalue_at_least_xi(self):
        H = random_rhs(np.random.default_rng(0), 8, 4)
        P = gram_regularized(H, 0.25)
        assert np.linalg.eigvalsh(P)[0] >= 0.25 - 1e-12

    def test_hermitian(self):
        H = random_rhs(np.random.default_rng(1), 8, 4)
        P = gram_regularized(H, 0.1)
        np.testing.assert_array_equal(P, P.conj().T)

    def test_nonpositive_xi_rejected(self):
        with pytest.raises(ConfigurationError):
            gram_regularized(np.eye(2), 0.0)


class TestRzfDirect:
    def test_identity_closed_form(self):
        # P = 2I per block, so F = I/2, tr(F^H F) = n/4 and
        # G = sqrt(power / (n/4)) F.
        power = 3.0
        real = ChannelRealization(np.eye(2), np.eye(4), np.eye(2))
        pre = build_precoder(real, 1.0, power, "direct")
        for G, n in ((pre.G1, 2), (pre.Gc, 4), (pre.G2, 2)):
            F = 0.5 * np.eye(n)
            np.testing.assert_allclose(G, np.sqrt(power / (n / 4)) * F,
                                       atol=1e-14)

    def test_power_identity(self):
        pre = build_precoder(_random_realization(2), 0.3, 2.5, "direct")
        for G in _blocks(pre):
            assert float(np.vdot(G, G).real) == pytest.approx(2.5, rel=1e-10)

    def test_matched_filter_limit(self):
        real = _random_realization(3)
        pre = build_precoder(real, 1e6, 1.0, "direct")
        for G, H in zip(_blocks(pre), real.blocks()):
            g = G / np.linalg.norm(G)
            h = H / np.linalg.norm(H)
            assert np.linalg.norm(g - h) < 1e-3

    def test_zero_channel_degenerate(self):
        real = ChannelRealization(np.zeros((4, 1)), np.zeros((4, 2)),
                                  np.zeros((4, 1)))
        with pytest.raises(DegenerateChannelError):
            build_precoder(real, 0.5, 1.0, "direct")

    def test_zero_side_block_gets_no_power(self):
        # Group 1 sees no antenna of its side subarray: H1 = 0.
        rng = np.random.default_rng(6)
        real = ChannelRealization(np.zeros((12, 3)), random_rhs(rng, 12, 6),
                                  random_rhs(rng, 12, 3))
        pre = build_precoder(real, 0.2, 1.0, "direct")
        np.testing.assert_array_equal(pre.G1, 0.0)
        assert float(np.vdot(pre.Gc, pre.Gc).real) == pytest.approx(1.0)
        gamma = sinr_eq9(real, pre, 0.1).gamma
        assert np.all(np.isfinite(gamma)) and np.all(gamma > 0)

    def test_all_zero_trial_in_a_stack_degenerate(self):
        live = _random_realization(5)
        dead = ChannelRealization(np.zeros((12, 3)), np.zeros((12, 6)),
                                  np.zeros((12, 3)))
        with pytest.raises(DegenerateChannelError):
            build_precoder(stacked([live, dead]), 0.5, 1.0, "cg")


class TestRzfIterative:
    def setup_method(self):
        self.real = _random_realization(4)
        self.exact = build_precoder(self.real, 0.2, 1.0, "direct")

    def test_cg_finite_termination_matches_direct(self):
        approx = build_precoder(self.real, 0.2, 1.0, "cg", T=6)
        err = (np.linalg.norm(approx.G - self.exact.G)
               / np.linalg.norm(self.exact.G))
        assert err < 1e-6

    @pytest.mark.parametrize("method", ["gs", "jor", "cg", "jacpcg"])
    def test_power_identity_all_solvers(self, method):
        pre = build_precoder(self.real, 0.2, 4.0, method, T=3, omega=0.5)
        for G in _blocks(pre):
            assert float(np.vdot(G, G).real) == pytest.approx(4.0, rel=1e-10)

    def test_cg_error_non_increasing_in_t(self):
        errs = [np.linalg.norm(build_precoder(self.real, 0.2, 1.0, "cg",
                                              T=T).G - self.exact.G)
                for T in range(1, 7)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))

    def test_t_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            build_precoder(self.real, 0.2, 1.0, "cg", T=0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError):
            build_precoder(self.real, 0.2, 1.0, "sor", T=2)


class TestAssembly:
    def test_zero_blocks_and_round_trip(self):
        real = ChannelRealization(np.eye(3)[:, :2] + 0.1,
                                  np.ones((3, 4)) + np.eye(3, 4),
                                  np.eye(3)[:, :2] + 0.2)
        pre = build_precoder(real, 0.5, 1.0, "direct")
        assert pre.G.shape == (9, 4)
        np.testing.assert_array_equal(pre.G[:3, 2:], 0.0)
        np.testing.assert_array_equal(pre.G[6:, :2], 0.0)
        np.testing.assert_array_equal(pre.G[:3, :2], pre.G1)
        np.testing.assert_array_equal(pre.G[3:6], pre.Gc)
        np.testing.assert_array_equal(pre.G[6:, 2:], pre.G2)

    def test_shape_mismatch_rejected(self):
        side = np.ones((3, 2))
        with pytest.raises(AssemblyError):
            # central block with 2 columns cannot serve K1 + K2 = 4 users
            explicit_precoder((side,) * 3, (side,) * 3)


class TestBuildPrecoder:
    @pytest.mark.parametrize("method", ["direct", "gs", "jor", "cg", "jacpcg"])
    def test_per_block_power_and_zero_pattern(self, method):
        cfg = small_config(**{"solver.omega": 0.5})
        _, draw = small_draw(cfg)
        real = draw.realization
        pre = build_precoder(real, xi=0.5, power=1.0, method=method, T=3,
                             omega=0.5)
        for G in (pre.G1, pre.Gc, pre.G2):
            assert float(np.vdot(G, G).real) == pytest.approx(1.0, rel=1e-10)
        K1 = real.K1
        M1 = real.H1.shape[0]
        Mc = real.Hc.shape[0]
        np.testing.assert_array_equal(pre.G[:M1, K1:], 0.0)
        np.testing.assert_array_equal(pre.G[M1 + Mc:, :K1], 0.0)

    @pytest.mark.parametrize("method", ["direct", "gs", "jor", "cg", "jacpcg"])
    def test_stack_equals_single_trials(self, method):
        reals = [_random_realization(seed) for seed in range(5, 9)]
        stack = build_precoder(stacked(reals), 0.2, 2.0, method)
        assert stack.G.shape == (4, 36, 6)
        for i, real in enumerate(reals):
            one = build_precoder(real, 0.2, 2.0, method)
            for name in ("G1", "Gc", "G2"):
                np.testing.assert_array_equal(getattr(stack, name)[i],
                                              getattr(one, name))

    def test_library_defaults_are_config_defaults(self):
        # A build with the library's T and omega must equal one with the
        # config's solver settings, at 25 dB where the systems are hardest.
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["power.snr_db=25"])
        scenario = build_scenario(cfg)
        xi, power, sol = cfg.power.xi, cfg.power.tx_power_watts, cfg.solver
        for trial in range(200):
            real = draw_trial(scenario, seed_stream(cfg.run.seed, trial)).realization
            for method in ("jor", "jacpcg"):
                lib = build_precoder(real, xi, power, method)
                ref = build_precoder(real, xi, power, method, T=sol.T,
                                     omega=sol.omega)
                for a, b in zip((lib.G1, lib.Gc, lib.G2),
                                (ref.G1, ref.Gc, ref.G2)):
                    np.testing.assert_array_equal(a, b)


def _per_block_oracle(real, xi, power, method, T, omega):
    """Per block, (G, C) made trial by trial: the system's visible users,
    padded with its dead users to its size class; the Gram on those users;
    a solve with the identity rhs; A = (P - xi I) W and tr(F^H F) =
    Re <W, A>; then G = beta H W on those users' columns and the coupling
    block C = beta A on those users, both zero elsewhere and where tr = 0."""
    out = []
    for H in real.blocks():
        H = np.asarray(H, dtype=complex)
        G = np.zeros(H.shape, dtype=complex)
        C = np.zeros((*H.shape[:-2], H.shape[-1], H.shape[-1]), dtype=complex)
        for t in np.ndindex(H.shape[:-2]):
            h, K = H[t], H.shape[-1]
            visible = [k for k in range(K) if np.any(h[:, k] != 0)]
            dead = [k for k in range(K) if k not in visible]
            n = min(K, max(CLASS_STEP, -(-len(visible) // CLASS_STEP) * CLASS_STEP))
            users = (visible + dead)[:n]
            P = gram_regularized(h, xi)[np.ix_(users, users)]
            eye = np.eye(n, dtype=complex)
            W = solve(HpdSystem(P=P, rhs=eye), method, T, omega, trace=False).w
            A = (P - xi * eye) @ W
            tr = np.vdot(W, A).real
            if tr > 0:
                G[t][:, users] = np.sqrt(power / tr) * (h[:, users] @ W)
                C[t][np.ix_(users, users)] = np.sqrt(power / tr) * A
        out.append((G, C))
    return out


def _full_solve_oracle(real, xi, power, method, T, omega):
    """(G1, Gc, G2) from full K_i x K_i solves on every user: F = H W and
    G = beta F with beta = sqrt(power / tr(F^H F)), zero where tr = 0."""
    out = []
    for H in real.blocks():
        H = np.asarray(H, dtype=complex)
        P = gram_regularized(H, xi)
        eye = np.broadcast_to(np.eye(P.shape[-1], dtype=complex), P.shape)
        F = H @ solve(HpdSystem(P=P, rhs=eye), method, T, omega,
                      trace=False).w
        tr = np.sum(np.abs(F) ** 2, axis=(-2, -1))
        live = tr > 0
        beta = np.where(live, np.sqrt(power / np.where(live, tr, 1.0)), 0.0)
        out.append(beta[..., None, None] * F)
    return out


def _reference_batch():
    """Four trials of the reference setup (M = 99, K = 32) as one stack."""
    cfg = ExperimentConfig()
    scenario = build_scenario(cfg)
    rngs = [seed_stream(cfg.run.seed, t) for t in range(4)]
    return draw_batch(scenario, rngs).realization


def _dead_side_stack():
    """Four trials; in the third, group 2 sees none of its side subarray."""
    reals = [_random_realization(seed) for seed in range(10, 14)]
    H1, Hc, H2 = reals[2].blocks()
    reals[2] = ChannelRealization(H1, Hc, np.zeros_like(H2))
    return stacked(reals)


def _every_user_visible():
    """Three trials at K = 16 in which every user sees every antenna: each
    system's size class is its block's K_i, 8 or 16."""
    cfg = small_config(**{"users.K": 16})
    rngs = [seed_stream(cfg.run.seed, t) for t in range(3)]
    real = draw_batch(build_scenario(cfg), rngs).realization
    assert all(np.all(H != 0) for H in real.blocks())
    return real


_STACKS = {"one-trial": lambda: _random_realization(4),
           "reference-stack": _reference_batch,
           "dead-side": _dead_side_stack,
           "every-user-visible": _every_user_visible}


@pytest.mark.parametrize("method", ["direct", "gs", "jor", "cg", "jacpcg"])
@pytest.mark.parametrize("stack", _STACKS)
def test_shared_pass_rounds_as_each_block_alone(method, stack):
    # One size class's systems, side and central blocks of every trial,
    # solve as one stack with Grams shared across methods; each system
    # must still round as its own solve.
    real = _STACKS[stack]()
    pre = build_precoder(real, 0.05, 2.0, method, T=3, omega=0.5)
    oracle = _per_block_oracle(real, 0.05, 2.0, method, 3, 0.5)
    for G, C, (G_ref, C_ref) in zip(_blocks(pre), (pre.C1, pre.Cc, pre.C2),
                                    oracle):
        assert np.array_equal(G, G_ref)
        assert np.array_equal(C, C_ref)


# The reference stack has users that a block cannot see; the others have
# every user visible (dead-side: but in one block), in blocks of K_i < 8
# users or of K_i = 8 and 16.  Entries agree to 1e-12 relative, or to 1e-12
# of the block's largest entry where they are near zero.
@pytest.mark.parametrize("method", ["direct", "gs", "jor", "cg", "jacpcg"])
@pytest.mark.parametrize("stack", _STACKS)
def test_visible_users_solve_as_the_full_system(method, stack):
    real = _STACKS[stack]()
    pre = build_precoder(real, 0.05, 2.0, method, T=3, omega=0.5)
    full = _full_solve_oracle(real, 0.05, 2.0, method, 3, 0.5)
    for H, G, C, ref in zip(real.blocks(), _blocks(pre),
                            (pre.C1, pre.Cc, pre.C2), full):
        np.testing.assert_allclose(G, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())
        dead = np.all(H == 0, axis=-2)
        assert np.all(G.swapaxes(-1, -2)[dead] == 0)
        # The coupling block is H^H G, found without touching M.
        HG = np.swapaxes(np.conj(H), -1, -2) @ G
        np.testing.assert_allclose(C, HG, rtol=1e-12,
                                   atol=1e-12 * np.abs(HG).max())


def test_block_without_visible_users_gets_no_power():
    real = _dead_side_stack()
    pre = build_precoder(real, 0.05, 2.0, "cg", T=3)
    np.testing.assert_array_equal(pre.G2[2], 0.0)
    np.testing.assert_array_equal(pre.C2[2], 0.0)
    for i in (0, 1, 3):
        assert float(np.vdot(pre.G2[i], pre.G2[i]).real) == pytest.approx(2.0)


# Each check of a setting that must be positive, as a call on that setting.
_POSITIVE_SETTINGS = {
    "sigma2": lambda real, x: sinr_eq9(
        real, build_precoder(real, 0.5, 1.0, "direct"), x),
    "gram-xi": lambda real, x: gram_regularized(real.Hc, x),
    "distance": lambda real, x: path_loss(np.array([1.0, x])),
    "power": lambda real, x: build_precoder(real, 0.5, x, "direct"),
    "precoder-xi": lambda real, x: build_precoder(real, x, 1.0, "direct"),
    "omega": lambda real, x: jor_solve(
        HpdSystem(P=np.eye(2), rhs=np.ones(2)), T=1, omega=x),
    "precond_diag": lambda real, x: jacpcg_solve(
        HpdSystem(P=np.eye(2), rhs=np.ones(2)), T=1, precond_diag=[x, 1.0]),
}


def _check_rejects(setting, value, match):
    error = NotHpdError if setting == "precond_diag" else ConfigurationError
    with pytest.raises(error, match=match):
        _POSITIVE_SETTINGS[setting](_random_realization(5), value)


# A NaN fails each positivity check as zero does, instead of flowing into a
# NaN result or a misleading error further on.
@pytest.mark.parametrize("setting", _POSITIVE_SETTINGS)
def test_nan_is_not_positive(setting):
    _check_rejects(setting, np.nan, "must be positive")


# +inf passes a bare `x > 0`, and then turns into NaN entries, a zero gain
# or a non-finite precoder.
@pytest.mark.parametrize("setting", _POSITIVE_SETTINGS)
def test_inf_is_not_positive(setting):
    _check_rejects(setting, np.inf, "must be positive and finite")
