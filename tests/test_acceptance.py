"""Acceptance suite: one test per primary criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; a criterion passes iff its test passes.
"""

import numpy as np
import pytest

from helpers import random_hpd, random_rhs, sinr_scalar_oracle, small_draw
from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.flops import flops_direct, flops_jacpcg
from xlmimo.linsolve import (HpdSystem, cg_solve, direct_solve, gs_solve,
                             jacpcg_solve, jor_solve)
from xlmimo.metrics import (ber_montecarlo, convergence_trace, precoding_bytes,
                            se_trial, sinr_eq9, trial_batches)
from xlmimo.precoder import build_precoder
from xlmimo.scenario import build_scenario, draw_trial
from xlmimo.seeding import seed_stream

METHODS = ["direct", "gs", "jor", "cg", "jacpcg"]


def _report(line):
    print(f"\n{line}")


def test_criterion_1_flop_model_reproduction():
    """Pinned Appendix-style integers and the headline complexity reduction."""
    jacpcg = flops_jacpcg(30, 5)
    direct = flops_direct(30)
    assert jacpcg == 46530
    assert direct == 108029
    reduction = 1.0 - jacpcg / direct
    assert 0.49 <= reduction <= 0.62
    _report(f"[criterion 1] flop model: jacpcg(K=30,T=5)={jacpcg}, "
            f"direct(K=30)={direct}, reduction={100 * reduction:.1f}% "
            f"in [49%, 62%] -- PASS")


def test_criterion_2_convergence_ordering():
    """Median least-square error: Jac-PCG <= CG per iteration; 10x decay by t=5."""
    cfg = ExperimentConfig()
    assert cfg.run.trials >= 50
    traces = convergence_trace(cfg)  # median over cfg.run.trials seeded trials
    for t in range(1, 6):
        assert traces["jacpcg"][t] <= traces["cg"][t], (
            f"jacpcg above cg at t={t}")
    for method in ("gs", "cg", "jacpcg"):
        assert traces[method][5] <= 0.10 * traces[method][0], (
            f"{method} missed the 10% bar: {traces[method][5]:.3e}")
    # JOR is exempt from the 10% bar (reported divergent at T=5)
    _report("[criterion 2] convergence: jacpcg<=cg for t=1..5 and t5/t0 of "
            f"gs={traces['gs'][5]:.2e}, cg={traces['cg'][5]:.2e}, "
            f"jacpcg={traces['jacpcg'][5]:.2e} all <=0.1 "
            f"(jor={traces['jor'][5]:.2e}, exempt) -- PASS")


def test_criterion_3_se_ordering_and_gap_growth():
    """Mean sum SE: direct >= jacpcg >= cg >= jor (2-sigma paired gaps) and a
    non-decreasing direct-vs-iterative gap over the antenna grid."""
    cfg = ExperimentConfig()
    trials = 250
    apply_overrides(cfg, ["power.snr_db=25.0", f"run.trials={trials}"])
    assert trials >= 200

    seed = cfg.run.seed
    per_m = {}
    for M in cfg.run.m_grid:
        scenario = build_scenario(cfg, M=M)
        # Each M point draws from its own master seed.
        apply_overrides(cfg, [f"run.seed={seed + 1_000_003 * M}"])
        rows = [se_trial(cfg, scenario, batch)
                for batch in trial_batches(trials, precoding_bytes(scenario))]
        per_m[M] = {m: np.concatenate([r[m] for r in rows]) for m in METHODS}

    # ordering chain with paired-difference significance at the reference M
    ref = per_m[cfg.run.m_grid[0]]
    chain = [("direct", "jacpcg"), ("jacpcg", "cg"), ("cg", "jor")]
    sigmas = []
    for hi, lo in chain:
        diff = ref[hi] - ref[lo]
        mean = diff.mean()
        sem = diff.std(ddof=1) / np.sqrt(diff.size)
        assert mean > 2.0 * sem, (
            f"{hi} vs {lo}: gap {mean:.3f} not > 2*SEM {sem:.3f}")
        sigmas.append(mean / sem)

    # direct-vs-iterative gap non-decreasing in M (CG tracks the iterative pack)
    gaps = [float((per_m[M]["direct"] - per_m[M]["cg"]).mean())
            for M in cfg.run.m_grid]
    assert all(b >= a for a, b in zip(gaps, gaps[1:])), f"gaps not monotone: {gaps}"

    _report("[criterion 3] SE ordering: direct>=jacpcg>=cg>=jor at "
            f"{[f'{s:.1f}sigma' for s in sigmas]} over {trials} trials; "
            f"direct-cg gap over M grid {[f'{g:.2f}' for g in gaps]} "
            "non-decreasing -- PASS")


def test_criterion_4_ber_ordering():
    """At 10 dB, >=1e6 bits: BER(jacpcg) <= BER(cg), JOR worst of all five."""
    cfg = ExperimentConfig()
    apply_overrides(cfg, ["run.snr_grid_db=[10.0]"])
    assert cfg.run.bits_per_point >= 1_000_000
    report = ber_montecarlo(cfg)
    assert report.bits_simulated >= 1_000_000
    ber = {m: float(report.ber[m][0]) for m in METHODS}
    assert ber["jacpcg"] <= ber["cg"], f"jacpcg {ber['jacpcg']} > cg {ber['cg']}"
    assert ber["jor"] == max(ber.values()), f"jor not worst: {ber}"
    _report(f"[criterion 4] BER at 10 dB over {report.bits_simulated} bits: "
            + ", ".join(f"{m}={ber[m]:.4f}" for m in METHODS)
            + " (jacpcg<=cg, jor max) -- PASS")


def test_criterion_5_solver_oracles():
    """CG finite termination, PCG/CG identity, GS descent, JOR threshold."""
    rng = np.random.default_rng(20250824)
    for n in (4, 8, 16, 32):
        for _ in range(100):
            P = random_hpd(rng, n)
            s = random_rhs(rng, n)
            sys = HpdSystem(P=P, rhs=s)
            ref = direct_solve(sys).w
            refnorm = np.linalg.norm(ref)

            # (a) CG reaches the direct solution within n iterations
            cg = cg_solve(sys, T=n, keep_iterates=True)
            assert np.linalg.norm(cg.w - ref) < 1e-8 * refnorm

            # (b) Jac-PCG with C = I reproduces CG bit-exactly
            pcg = jacpcg_solve(sys, T=n, precond_diag=np.ones(n),
                               keep_iterates=True)
            for a, b in zip(cg.iterates, pcg.iterates):
                np.testing.assert_array_equal(a, b)

            # (c) GS error strictly decreases over n sweeps.  The monotone
            # functional for GS on an HPD system is the energy-norm error
            # ||w - w*||_P (the raw least-square residual may transiently
            # rise on the first sweep); the end-to-end residual must drop too.
            gs = gs_solve(sys, T=n, keep_iterates=True)
            states = [np.zeros_like(ref)] + gs.iterates
            energy = [float(np.vdot(x - ref, P @ (x - ref)).real)
                      for x in states]
            assert all(b < a for a, b in zip(energy, energy[1:]))
            assert gs.residual_trace[-1] < gs.residual_trace[0]

            # (d) JOR below/above the divergence threshold 2/rho(D^-1 P)
            d = np.sqrt(np.diag(P).real)
            lam_max = np.linalg.eigvalsh(P / np.outer(d, d))[-1]
            good = jor_solve(sys, T=400, omega=1.0 / lam_max)
            assert good.converged
            assert good.residual_trace[-1] < 0.5 * good.residual_trace[0]
            bad = jor_solve(sys, T=50, omega=2.5 / lam_max)
            assert not bad.converged
    _report("[criterion 5] solver oracles: CG finite termination, "
            "Jac-PCG(C=I)==CG bit-exact, GS monotone descent, JOR divergence "
            "flag on 100 systems per n in {4,8,16,32} -- PASS")


def test_criterion_6_structural_invariants():
    """Zero-block patterns, power identity, out-of-VR zeros, SINR oracle."""
    cfg = ExperimentConfig()
    scenario = build_scenario(cfg)
    draw = draw_trial(scenario, seed_stream(cfg.run.seed, 0))
    H = draw.realization.H
    xi, power = cfg.power.xi, cfg.power.tx_power_watts

    # channel and precoder zero blocks are exact
    np.testing.assert_array_equal(H[:33, 16:], 0.0)
    np.testing.assert_array_equal(H[66:, :16], 0.0)
    for method in METHODS:
        pre = build_precoder(draw.realization, xi, power, method,
                             T=cfg.solver.T, omega=cfg.solver.omega)
        np.testing.assert_array_equal(pre.G[:33, 16:], 0.0)
        np.testing.assert_array_equal(pre.G[66:, :16], 0.0)
        # power identity per block to 1e-10 relative
        for G in (pre.G1, pre.Gc, pre.G2):
            tr = float(np.vdot(G, G).real)
            assert abs(tr - power) <= 1e-10 * power

    # out-of-VR channel energy exactly zero
    for k in range(scenario.K):
        np.testing.assert_array_equal(H[~draw.vr_masks[k], k], 0.0)

    # vectorized SINR vs independent scalar-loop oracle on K=4, M=9
    _, sdraw = small_draw()
    pre = build_precoder(sdraw.realization, 0.5, 1.0, "direct")
    report = sinr_eq9(sdraw.realization, pre, 1e-9)
    oracle = sinr_scalar_oracle(sdraw.realization, pre, 1e-9)
    np.testing.assert_allclose(report.gamma, oracle, rtol=1e-12)

    _report("[criterion 6] structural invariants: exact zero blocks, "
            "per-block tr(G^H G)=P to 1e-10, out-of-VR energy 0, "
            "SINR oracle agreement to 1e-12 -- PASS")


def test_criterion_7_determinism(tmp_path):
    """Byte-identical CSVs for identical (config, seed) on every scenario."""
    from xlmimo.experiments import run_experiment

    for experiment in ("flops", "convergence", "se_vs_m", "ber"):
        outputs = []
        for run in range(2):
            cfg = ExperimentConfig()
            apply_overrides(cfg, [
                f"run.experiment={experiment}", "geometry.M=9", "users.K=4",
                "run.trials=5", "run.m_grid=[9, 12]",
                "run.bits_per_point=2048", "run.symbols_per_channel=64",
                "run.snr_grid_db=[0.0, 10.0]", "channel.vr_mu_frac=3.0",
            ])
            path = tmp_path / f"{experiment}_{run}.csv"
            run_experiment(cfg, str(path))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], f"{experiment} CSVs differ"
    _report("[criterion 7] determinism: byte-identical CSVs for all four "
            "scenarios under repeated (config, seed) -- PASS")
