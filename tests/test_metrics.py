"""Metrics: SINR/SE evaluation, QPSK chain, BER Monte Carlo, convergence traces."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (explicit_precoder, sinr_scalar_oracle, small_config,
                     small_draw, stacked)
from xlmimo.channel import ChannelRealization
from xlmimo import metrics
from xlmimo.config import ExperimentConfig, PowerConfig, apply_overrides
from xlmimo.errors import ConfigurationError
from xlmimo.linsolve import solve
from xlmimo.metrics import (ber_montecarlo, convergence_trace, coupling_matrix,
                            qpsk_detect, qpsk_modulate, se_montecarlo,
                            se_trial, sinr_eq9, sum_se)
from xlmimo.precoder import build_precoder, gram_stack, precode_each
from xlmimo.scenario import build_scenario, draw_batch
from xlmimo.seeding import BER, seed_stream


def _zero_precoder(real):
    return explicit_precoder(real.blocks(),
                             (np.zeros_like(H) for H in real.blocks()))


class TestSinr:
    def test_zero_precoder_zero_rate(self):
        _, draw = small_draw()
        report = sinr_eq9(draw.realization, _zero_precoder(draw.realization),
                          1e-8)
        np.testing.assert_array_equal(report.gamma, 0.0)
        assert report.sum_se == 0.0

    def test_sum_is_sum_of_users(self):
        _, draw = small_draw()
        pre = build_precoder(draw.realization, 0.5, 1.0, "direct")
        report = sinr_eq9(draw.realization, pre, 1e-9)
        se = np.log2(1.0 + report.gamma)
        assert report.sum_se == pytest.approx(se.sum())
        assert np.all(report.gamma >= 0)
        assert np.all(np.isfinite(report.gamma))

    def test_coupling_matrix_equals_full_product(self):
        _, draw = small_draw()
        pre = build_precoder(draw.realization, 0.5, 1.0, "direct")
        B = coupling_matrix(draw.realization, pre)
        full = draw.realization.H.conj().T @ pre.G
        np.testing.assert_allclose(B, full, atol=1e-12)

    # Each block term of a direct precoder's coupling matrix is Hermitian,
    # so its row and column sums agree; CG stopped at T=3 tells apart the
    # interference a user receives from the interference it causes.
    @pytest.mark.parametrize("method, T", [("direct", 1), ("cg", 3)])
    def test_vectorized_matches_scalar_oracle(self, method, T):
        _, draw = small_draw()
        pre = build_precoder(draw.realization, 0.5, 1.0, method, T=T)
        report = sinr_eq9(draw.realization, pre, 1e-9)
        oracle = sinr_scalar_oracle(draw.realization, pre, 1e-9)
        np.testing.assert_allclose(report.gamma, oracle, rtol=1e-12)

    def test_single_user_groups_no_interference(self):
        rng = np.random.default_rng(0)
        H1 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        H2 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        # users invisible to the central subarray: cross terms vanish
        real = ChannelRealization(H1, np.zeros((3, 2), complex), H2)
        G1 = H1 / np.linalg.norm(H1)
        G2 = H2 / np.linalg.norm(H2)
        pre = explicit_precoder(real.blocks(),
                                (G1, np.zeros((3, 2), complex), G2))
        report = sinr_eq9(real, pre, 0.5)
        expected = np.array([np.linalg.norm(H1) ** 2,
                             np.linalg.norm(H2) ** 2]) / 0.5
        np.testing.assert_allclose(report.gamma, expected, rtol=1e-12)

    def test_stack_equals_single_trials(self):
        cfg = small_config()
        reals = [small_draw(cfg, trial)[1].realization for trial in range(3)]
        stack = stacked(reals)
        report = sinr_eq9(stack, build_precoder(stack, 0.5, 1.0, "cg"), 1e-9)
        for i, real in enumerate(reals):
            one = sinr_eq9(real, build_precoder(real, 0.5, 1.0, "cg"), 1e-9)
            np.testing.assert_array_equal(report.gamma[i], one.gamma)
            assert report.sum_se[i] == one.sum_se

    def test_invalid_noise_rejected(self):
        _, draw = small_draw()
        with pytest.raises(ConfigurationError):
            sinr_eq9(draw.realization, _zero_precoder(draw.realization), 0.0)


class TestSumSe:
    def test_mean_and_sem(self):
        mean, sem = sum_se([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert sem == pytest.approx(1.0 / np.sqrt(3.0))

    def test_single_trial(self):
        assert sum_se([5.0]) == (5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sum_se([])


class TestQpsk:
    def test_round_trip_all_symbols(self):
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int8)
        sym = qpsk_modulate(bits)
        np.testing.assert_allclose(np.abs(sym), 1.0)
        np.testing.assert_array_equal(qpsk_detect(sym), bits)

    def test_unit_average_power(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(1000, 2), dtype=np.int8)
        sym = qpsk_modulate(bits)
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0)

    def test_levels_round_as_the_formula(self):
        bits = np.random.default_rng(3).integers(0, 2, size=(6, 40, 2),
                                                 dtype=np.int8)
        formula = ((1.0 - 2.0 * bits[..., 0])
                   + 1j * (1.0 - 2.0 * bits[..., 1])) / np.sqrt(2.0)
        assert qpsk_modulate(bits).tobytes() == formula.tobytes()

    @pytest.mark.parametrize("view", ["strided", "transposed", "real", "scalar"])
    def test_detect_on_views(self, view):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((8, 30)) + 1j * rng.standard_normal((8, 30))
        y = {"strided": y[:, ::3], "transposed": y.T, "real": y.real,
             "scalar": -y[0, 0].conj()}[view]
        two_arrays = np.stack([(y.real < 0).astype(np.int8),
                               (y.imag < 0).astype(np.int8)], axis=-1)
        out = qpsk_detect(y)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, two_arrays)


def _coupling(rng, batch, K, gains):
    B = rng.standard_normal((batch, K, K)) + 1j * rng.standard_normal((batch, K, K))
    B[:, range(K), range(K)] = gains
    return B


class TestBer:
    def test_kernel_decides_as_dividing_by_the_gain(self, monkeypatch):
        # The kernel decides on the signs of y conj(g); the reference divides
        # y by g with numpy's (Smith's) complex division and tests the signs
        # of Re and Im apart.  Couplings on the noise's scale keep decisions
        # noisy; the gains take both of Smith's branches, and one is zero.
        cfg = small_config()
        K, nsym, batch = cfg.users.K, cfg.run.symbols_per_channel, 3
        sigma2 = PowerConfig().sigma2_watts
        rng = np.random.default_rng(5)
        big, small = rng.uniform(0.1, 1.0, (2, batch, K))
        signs = rng.choice([-1.0, 1.0], (2, batch, K))
        couplings = {
            "re": _coupling(rng, batch, K,
                            signs[0] * (big + small) + 1j * signs[1] * small),
            "im": _coupling(rng, batch, K,
                            signs[0] * small + 1j * signs[1] * (big + small)),
            "zero": _coupling(rng, batch, K, np.array([0.0, 1.0, 1j, -1.0]))}
        for B in couplings.values():
            B *= np.sqrt(sigma2)
        monkeypatch.setattr(metrics, "precode_each", lambda *args: couplings)
        decided, detect = [], metrics.qpsk_detect
        monkeypatch.setattr(metrics, "qpsk_detect",
                            lambda y: decided.append(detect(y).copy()) or decided[-1])
        errors = metrics._ber_kernel(cfg, SimpleNamespace(K=K),
                                     [np.random.default_rng(s) for s in range(batch)],
                                     0.0)
        expected, counts = [], {m: [] for m in couplings}
        for i in range(batch):
            rng = np.random.default_rng(i)
            bits = rng.integers(0, 2, size=(K, nsym, 2), dtype=np.int8)
            noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal((K, nsym))
                                             + 1j * rng.standard_normal((K, nsym)))
            for m, B in couplings.items():
                g = np.diag(B[i]).copy()
                g[g == 0] = 1.0
                y = (B[i] @ qpsk_modulate(bits) + noise) / g[:, None]
                d = np.stack([y.real < 0, y.imag < 0], axis=-1).astype(np.int8)
                expected.append(d)
                counts[m].append(np.count_nonzero(d != bits))
        assert len(decided) == len(expected)
        for got, want in zip(decided, expected):
            np.testing.assert_array_equal(got, want)
        for m in couplings:
            np.testing.assert_array_equal(errors[m], counts[m])
            assert 0 < sum(counts[m]) < batch * K * nsym

    def test_smoke_and_report_fields(self):
        cfg = small_config(**{"run.methods": "[direct, cg]",
                              "run.snr_grid_db": "[10.0]"})
        report = ber_montecarlo(cfg)
        assert set(report.ber) == {"direct", "cg"}
        assert report.bits_simulated >= cfg.run.bits_per_point
        for m in report.ber:
            assert np.all(report.ber[m] >= 0) and np.all(report.ber[m] <= 0.5)
            assert report.bit_errors[m].dtype == np.int64

    def test_noiseless_limit_direct(self):
        # one user per group so every block can be zero-forced; at 60 dB the
        # residual noise and interference leave essentially no bit errors
        cfg = small_config(**{"users.K": 2, "run.methods": "[direct]",
                              "run.snr_grid_db": "[60.0]"})
        report = ber_montecarlo(cfg)
        assert report.ber["direct"][0] < 1e-4

    def test_empty_grid_rejected(self):
        cfg = small_config()
        cfg.run.snr_grid_db = []  # set after validation; the pipeline validates
        with pytest.raises(ConfigurationError, match="run.snr_grid_db"):
            ber_montecarlo(cfg)

    def test_channel_scale_invariance(self):
        """Scaling H by c with sigma^2 by c^2 at fixed P leaves decisions unchanged."""
        cfg = small_config()
        scenario, draw = small_draw(cfg)
        real = draw.realization
        power, sigma2, xi = 1.0, 1e-5, 1e-5
        c = 2.0
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(scenario.K, 64, 2), dtype=np.int8)
        sym = qpsk_modulate(bits)
        noise = (rng.standard_normal((scenario.K, 64))
                 + 1j * rng.standard_normal((scenario.K, 64)))

        def decisions(realization, s2, x):
            pre = build_precoder(realization, x, power, "direct")
            B = coupling_matrix(realization, pre)
            gain = np.diag(B).copy()
            Y = B @ sym + np.sqrt(s2 / 2.0) * noise
            return qpsk_detect(Y / gain[:, None])

        base = decisions(real, sigma2, xi)
        scaled = decisions(ChannelRealization(*(B * c for B in real.blocks())),
                           sigma2 * c ** 2, xi * c ** 2)
        np.testing.assert_array_equal(base, scaled)

    # Given a trial's coupling B and its bits, user k decides each bit on Re
    # or Im of y c, c = conj(g_k) (1 for a dead user), where y = (B s)_k + n
    # and n ~ CN(0, sigma^2): a Gaussian of mean Re or Im of (B s)_k c and
    # standard deviation sigma |c| / sqrt(2).  So a bit errs with probability
    # erfc(d mu / (sigma |c|)) / 2, d = 1 - 2 b its symbol's sign and mu that
    # mean, independently of every other bit.  Over 128 draws of 512 bits,
    # the kernel's errors less the summed expectations, over the square root
    # of the summed variances p (1 - p), is a z-score: 0.84 and 0.35 here,
    # and 14 and 32 where the kernel's noise variance is doubled.
    @pytest.mark.parametrize("snr_db", [10.0, 20.0])
    def test_errors_match_the_noise_averaged_oracle(self, snr_db):
        cfg = small_config()
        K, nsym, draws = cfg.users.K, cfg.run.symbols_per_channel, 128
        scenario, key = build_scenario(cfg), (BER, 0)
        errors = metrics._run_batch((metrics._ber_kernel, cfg, scenario, key,
                                     range(draws), snr_db))
        # Each trial's bits follow its channel on its stream.
        rngs = [seed_stream(cfg.run.seed, *key, t) for t in range(draws)]
        grams = gram_stack(draw_batch(scenario, rngs).realization)
        bits = np.stack([rng.integers(0, 2, size=(K, nsym, 2), dtype=np.int8)
                         for rng in rngs])
        power = PowerConfig(snr_db=snr_db)
        couplings = precode_each(grams, power.xi, power.tx_power_watts,
                                 cfg.run.methods, cfg.solver.T,
                                 cfg.solver.omega,
                                 lambda pre: coupling_matrix(grams, pre))
        erfc = np.frompyfunc(math.erfc, 1, 1)
        for m, B in couplings.items():
            c = np.diagonal(B, axis1=-2, axis2=-1).conj()
            c[c == 0] = 1.0
            mean = (B @ qpsk_modulate(bits)) * c[..., None]
            margin = (np.stack([mean.real, mean.imag], axis=-1)
                      * (1.0 - 2.0 * bits)
                      / (math.sqrt(power.sigma2_watts) * np.abs(c))[..., None, None])
            p = erfc(margin).astype(float) / 2.0
            z = ((errors[m] - p.sum(axis=(1, 2, 3))).sum()
                 / math.sqrt((p * (1.0 - p)).sum()))
            assert 0 < errors[m].sum() < bits.size
            assert abs(z) < 4.5, (m, z)


class TestConvergenceTrace:
    def test_shared_start_and_shapes(self):
        cfg = small_config(**{"run.t_max": 4, "run.trials": 5})
        traces = convergence_trace(cfg)
        assert set(traces) == {"gs", "jor", "cg", "jacpcg"}
        for trace in traces.values():
            assert trace.shape == (5,)
            # Every solver starts from w = 0: the initial normalized error is 1
            assert trace[0] == pytest.approx(1.0)

    def test_tmax_validation(self):
        cfg = small_config()
        cfg.run.t_max = 0  # set after validation; the pipeline validates
        with pytest.raises(ConfigurationError, match="run.t_max"):
            convergence_trace(cfg)

    def test_needs_iterative_method(self):
        with pytest.raises(ConfigurationError):
            convergence_trace(small_config(**{"run.methods": "[direct]"}))

    def test_reduces_the_trials_by_the_median(self, monkeypatch):
        # Three trials' traces per method, whose mean differs from their
        # median at every t > 0.
        traces = {"gs": np.array([[1.0, 0.5, 0.1],
                                  [1.0, 0.2, 0.001],
                                  [1.0, 0.9, 0.7]]),
                  "cg": np.array([[1.0, 1e-3, 1e-9],
                                  [1.0, 1e-1, 1e-6],
                                  [1.0, 1e-2, 1e-12]])}

        def hand_built(cfg, kernel, points, trials):
            assert trials == 3
            return iter([traces])

        monkeypatch.setattr(metrics, "monte_carlo", hand_built)
        cfg = small_config(**{"run.methods": "[gs, cg]", "run.t_max": 2})
        out = convergence_trace(cfg)
        np.testing.assert_array_equal(out["gs"], [1.0, 0.5, 0.1])
        np.testing.assert_array_equal(out["cg"], [1.0, 1e-2, 1e-9])

    @pytest.mark.parametrize("M", [99, 264])
    def test_krylov_errors_within_the_condition_bound(self, M, monkeypatch):
        # ||e_t||_P <= 2 q^t ||e_0||_P, q = (sqrt(k) - 1) / (sqrt(k) + 1),
        # with k = kappa(P) for CG and kappa(D^-1/2 P D^-1/2) for Jacobi
        # PCG (Saad, Iterative Methods for Sparse Linear Systems, 6.11 and
        # 9.2), and lambda_min ||e||_P^2 <= ||r||^2 <= lambda_max ||e||_P^2
        # give LS error_t <= 4 kappa(P) q^(2t), per trial.
        solves = []

        def recording(sys, method, *args):
            out = solve(sys, method, *args)
            solves.append((method, sys.P, out.residual_trace))
            return out

        monkeypatch.setattr(metrics, "solve", recording)
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["run.experiment=convergence", f"geometry.M={M}",
                              "run.methods=[cg, jacpcg]", "run.t_max=20"])
        convergence_trace(cfg)
        checked = {"cg": 0, "jacpcg": 0}
        for method, P, trace in solves:
            kappa_P = _kappa(P)
            if method == "jacpcg":
                d = np.sqrt(np.diagonal(P, axis1=-2, axis2=-1).real)
                P = P / (d[..., :, None] * d[..., None, :])
            k = np.sqrt(_kappa(P))[:, None]
            t = np.arange(trace.shape[-1])
            bound = 4 * kappa_P[:, None] * ((k - 1) / (k + 1)) ** (2 * t)
            assert np.all(trace <= bound), method
            checked[method] += trace.size
        assert checked == {"cg": 50 * 21, "jacpcg": 50 * 21}


def _kappa(P):
    vals = np.linalg.eigvalsh(P)
    return vals[..., -1] / vals[..., 0]


class TestSeTrial:
    def test_paired_draw_and_direct_dominance_tendency(self):
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["power.snr_db=25.0",
                              "run.methods=[direct, cg, jor]"])
        scenario = build_scenario(cfg)
        out = se_trial(cfg, scenario, range(1))
        assert set(out) == {"direct", "cg", "jor"}
        assert all(v.shape == (1,) and v[0] > 0 for v in out.values())

    def test_batch_equals_single_trials(self):
        methods = ["direct", "gs", "jacpcg"]
        cfg = small_config(**{"run.methods": f"[{', '.join(methods)}]"})
        scenario = build_scenario(cfg)
        batch = se_trial(cfg, scenario, range(2, 6))
        for i, trial in enumerate(range(2, 6)):
            one = se_trial(cfg, scenario, range(trial, trial + 1))
            assert {m: batch[m][i] for m in methods} == {
                m: one[m][0] for m in methods}

    def test_deterministic(self):
        cfg = small_config(**{"run.methods": "[direct, cg]"})
        scenario = build_scenario(cfg)
        a = se_trial(cfg, scenario, range(3, 4))
        b = se_trial(cfg, scenario, range(3, 4))
        assert set(a) == {"direct", "cg"}
        for m in a:
            np.testing.assert_array_equal(a[m], b[m])

    def test_is_the_se_vs_m_pipeline(self):
        # Acceptance criterion 3 measures SE through se_trial, the CSV comes
        # from se_montecarlo: both draw trial t of M from (SE_VS_M, M, t).
        cfg = small_config(**{"run.m_grid": "[9, 12]"})
        Ms = []
        for M, sums in se_montecarlo(cfg):
            Ms.append(M)
            alone = se_trial(cfg, build_scenario(cfg, M=M),
                             range(cfg.run.trials))
            assert list(alone) == list(sums) == cfg.run.methods
            for m in cfg.run.methods:
                assert alone[m].tobytes() == sums[m].tobytes(), (M, m)
        assert Ms == [9, 12]


class TestReferenceBatches:
    """A batch at the reference size rounds as its trials alone.

    At K = 32 the users a block sees vary from trial to trial, so the
    blocks' systems fall in different size classes; a system's class is its
    own, whatever batch it is in.  One size per batch would not do: BLAS and
    LAPACK rounding depends on the matrix size.
    """

    @pytest.mark.parametrize("M", [99, 264])
    def test_se_batch_equals_single_trials(self, M):
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["power.snr_db=25"])
        scenario = build_scenario(cfg, M=M)
        batch = se_trial(cfg, scenario, range(6))
        for t in range(6):
            one = se_trial(cfg, scenario, range(t, t + 1))
            for m in cfg.run.methods:
                assert batch[m][t] == one[m][0], (m, t)

    def test_se_run_equals_single_trials(self):
        # The se_vs_m CSV holds each M's mean and SEM, which no order of
        # the trials changes: every trial of a whole run, its batches
        # drawn in sub-batches from M = 198 on, must be that trial alone.
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["power.snr_db=25", "run.trials=16"])
        scenarios = [build_scenario(cfg, M=M) for M in cfg.run.m_grid]
        # A GramStack holds three K x K complex arrays per trial.
        assert [any(len(metrics.draw_batches(s, len(b), 3)) > 1 for b in
                    metrics.trial_batches(cfg.run.trials,
                                          metrics.precoding_bytes(s)))
                for s in scenarios] == [M >= 198 for M in cfg.run.m_grid]
        for scenario, (M, sums) in zip(scenarios, se_montecarlo(cfg)):
            for t in range(cfg.run.trials):
                one = se_trial(cfg, scenario, [t])
                for m in cfg.run.methods:
                    assert sums[m][t:t + 1].tobytes() == one[m].tobytes(), (
                        M, m, t)

    def test_ber_batch_equals_single_trials(self, monkeypatch):
        # The bit errors, and the couplings that the QPSK chain reads.
        couplings = []
        monkeypatch.setattr(metrics, "coupling_matrix", lambda real, pre: (
            couplings.append(coupling_matrix(real, pre)) or couplings[-1]))
        cfg = ExperimentConfig()
        scenario = build_scenario(cfg)

        def run(trials):
            couplings.clear()
            errors = metrics._run_batch((metrics._ber_kernel, cfg, scenario,
                                         (BER, 3), trials, 6.0))
            return errors, list(couplings)

        batch, batch_B = run(range(4))
        for t in range(4):
            one, one_B = run(range(t, t + 1))
            for m in cfg.run.methods:
                assert batch[m][t] == one[m][0], (m, t)
            for B, B_one in zip(batch_B, one_B):
                assert B[t].tobytes() == B_one[0].tobytes(), t
