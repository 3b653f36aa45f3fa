"""Experiment pipelines: work done per grid point, output bytes that do not
depend on how trials are batched, and the call paths that an outside-in
tracer (perfbench/xlbench/layers.py) counts by swapping module attributes
and solver-table entries."""

import hashlib
import math
import sys
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

from helpers import small_config
from test_golden import GOLDEN, SMALL, golden_case
from xlmimo import channel, geometry, linsolve, metrics, precoder, scenario
from xlmimo.config import ExperimentConfig, apply_overrides
from xlmimo.errors import DegenerateChannelError, NonFiniteError
from xlmimo.experiments import run_experiment
from xlmimo.scenario import build_scenario

M_GRID = [9, 12]
TRIALS = 5


def _small(experiment):
    return small_config(**{"run.experiment": experiment,
                           "run.m_grid": str(M_GRID),
                           "run.trials": TRIALS})


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _swap(monkeypatch, original, wrapper):
    """Swap `original` for `wrapper` in every xlmimo module that holds it,
    the way the tracer does."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "xlmimo"
                                  or modname.startswith("xlmimo.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)


def _count_calls(monkeypatch, counts, name, original):
    _swap(monkeypatch, original, _counting(counts, name, original))


def test_se_vs_m_builds_one_scenario_per_m(tmp_path, monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts, "build_scenario",
                 scenario.build_scenario)
    run_experiment(_small("se_vs_m"), str(tmp_path / "se.csv"))
    assert counts["build_scenario"] == len(M_GRID)


def test_tracer_hooks_reach_the_channel_draw(tmp_path, monkeypatch):
    counts = Counter()
    for name, fn in (("draw", scenario.draw_batch),
                     ("drop", geometry.drop_users),
                     ("vr", geometry.sample_vr),
                     ("assemble", channel.assemble_from_user_channels)):
        _count_calls(monkeypatch, counts, name, fn)
    cfg = _small("se_vs_m")
    run_experiment(cfg, str(tmp_path / "se.csv"))
    batches = sum(len(metrics.trial_batches(
        TRIALS, metrics.precoding_bytes(build_scenario(cfg, M))))
        for M in M_GRID)
    # One call of each per batch draws every trial and user of it at once.
    assert counts == Counter(draw=batches, drop=batches, assemble=batches,
                             vr=batches)


def test_tracer_hooks_reach_every_method(tmp_path, monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts, "direct", linsolve.direct_solve)
    _count_calls(monkeypatch, counts, "gram", precoder.gram_regularized)
    _count_calls(monkeypatch, counts, "block_gram", precoder._gram)
    # The tracer swaps the iterative solvers in the dispatch table only.
    for method, fn in list(linsolve.ITERATIVE_SOLVERS.items()):
        monkeypatch.setitem(linsolve.ITERATIVE_SOLVERS, method,
                            _counting(counts, method, fn))

    # se_vs_m: per batch of trials, one Gram H^H H per block (side, central,
    # side), shared by every method, and one solve per method and size class
    # of visible users.  At this size every user sees every antenna, so the
    # side blocks make one class (K/2) and the central block another (K),
    # and the trials of an M point make one batch.
    cfg = _small("se_vs_m")
    assert all(len(metrics.trial_batches(
        TRIALS, metrics.precoding_bytes(build_scenario(cfg, M)))) == 1
        for M in M_GRID)
    run_experiment(cfg, str(tmp_path / "se.csv"))
    solves = 2 * len(M_GRID)
    assert counts == Counter({**{m: solves for m in linsolve.METHODS},
                              "block_gram": 3 * len(M_GRID)})

    # convergence: one regularized Gram stack per batch, one solve per
    # iterative method.
    counts.clear()
    run_experiment(_small("convergence"), str(tmp_path / "conv.csv"))
    assert counts == Counter({**{m: 1 for m in linsolve.ITERATIVE_SOLVERS},
                              "gram": 1, "block_gram": 1})


# Each pipeline at both ends of the M grid, or at the benchmark's ber-qpsk
# settings: the overrides, the batch sizes they give and, where a batch
# draws in more than one sub-batch, the sub-batch sizes.
@pytest.mark.parametrize("experiment, items, sizes, draws", [
    ("se_vs_m", ["run.m_grid=[99]", "run.trials=12"], [6, 6], None),
    ("se_vs_m", ["run.m_grid=[264]", "run.trials=6"], [6], [3, 3]),
    ("se_vs_m", ["run.m_grid=[264]", "run.trials=16"], [8, 8], [4] * 4),
    # A BER batch holds the larger of its pass and its chain: at 512
    # symbols both allow 8 trials, so each SNR point's 8 draws make one
    # batch, and 16 make two; at 640 symbols the chain allows 5 and the
    # pass 8; at 64 the pass allows 8 and the chain 17 (a batch of 8 that
    # charged the pass without the B it holds for the chain overran).
    ("ber", ["run.bits_per_point=262144"], [8] * 6, None),
    ("ber", ["run.snr_grid_db=[6.0]", "run.bits_per_point=524288"], [8, 8],
     None),
    ("ber", ["run.snr_grid_db=[6.0]", "run.symbols_per_channel=640",
             "run.bits_per_point=204800"], [5], None),
    ("ber", ["run.snr_grid_db=[6.0]", "run.symbols_per_channel=64",
             "run.bits_per_point=65536"], [8, 8], None),
    # A convergence batch holds as many trials at either M; at M = 264 it
    # draws in sub-batches.
    ("convergence", ["run.t_max=20", "run.trials=17"], [17], None),
    ("convergence", ["geometry.M=264", "run.t_max=20", "run.trials=17"],
     [17], [3, 3, 4, 3, 4]),
    # Far past convergence the stacked iterates outweigh the Grams.
    ("convergence", ["run.t_max=300", "run.trials=8"], [4, 4], None),
    # Below K = 32 at M = 99, each at a count that made one batch that
    # overran the budget: the streams, the pass's full size classes, and
    # the blocks cut from the rows or reduced while held.
    ("se_vs_m", ["users.K=16", "run.m_grid=[99]", "run.trials=37"],
     [18, 19], None),
    ("se_vs_m", ["users.K=8", "run.m_grid=[99]", "run.trials=153"],
     [51] * 3, None),
    ("se_vs_m", ["users.K=4", "run.m_grid=[99]", "run.trials=614"],
     [153, 154] * 2, [76, 77, 77, 77] * 2),
    ("ber", ["users.K=16", "run.snr_grid_db=[6.0]",
             "run.bits_per_point=425984"], [26], None),
    ("ber", ["users.K=8", "run.snr_grid_db=[6.0]",
             "run.bits_per_point=1081344"], [66, 66], None),
    ("ber", ["users.K=4", "run.snr_grid_db=[6.0]",
             "run.bits_per_point=2338816"], [142, 143, 143, 143],
     [71, 71, 71, 72, 71, 72, 71, 72]),
    ("convergence", ["users.K=16", "run.t_max=20", "run.trials=36"], [36],
     [18, 18]),
    ("convergence", ["users.K=8", "run.t_max=20", "run.trials=74"], [74],
     [37, 37]),
    ("convergence", ["users.K=4", "run.t_max=20", "run.trials=310"],
     [155, 155], [77, 78] * 2),
    # With every user seeing every antenna, every size class fills its
    # block, and CG's and Jac-PCG's solves of the central class hold more
    # per trial than precoding_bytes charges: the batch of 9 peaks at
    # 1764585 B (2207497 B while the pass held its Gram stack).
    pytest.param(
        "se_vs_m", ["channel.vr_mu_frac=3.0", "run.m_grid=[99]",
                    "run.trials=9"], [9], None,
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="FOUND: the batch budget holds only at the default "
                   "visibility"))],
    ids=["se_vs_m-M99", "se_vs_m-M264", "se_vs_m-M264-passes",
         "ber-qpsk", "ber-two-per-point", "ber-chain-binds", "ber-pass-binds",
         "convergence-M99", "convergence-M264",
         "convergence-tmax300", "se_vs_m-K16", "se_vs_m-K8", "se_vs_m-K4",
         "ber-K16", "ber-K8", "ber-K4", "convergence-K16", "convergence-K8",
         "convergence-K4", "se_vs_m-full-visibility"])
def test_batch_peak_within_budget(experiment, items, sizes, draws, tmp_path,
                                  monkeypatch):
    # Every batch holds at most BATCH_BYTES at once, draw and kernel
    # together.
    peaks, seen, drawn = [], [], []
    run_batch, draw_batch = metrics._run_batch, metrics.draw_batch

    def traced(job):
        seen.append(len(job[4]))
        tracemalloc.start()
        try:
            return run_batch(job)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def draw(scenario, rngs):
        drawn.append(len(rngs))
        return draw_batch(scenario, rngs)

    monkeypatch.setattr(metrics, "_run_batch", traced)
    monkeypatch.setattr(metrics, "draw_batch", draw)
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *items])
    run_experiment(cfg, str(tmp_path / "out.csv"))
    assert seen == sizes
    assert drawn == (sizes if draws is None else draws)
    assert max(peaks) <= metrics.BATCH_BYTES


def test_convergence_batches_do_not_depend_on_m(monkeypatch):
    # The convergence kernel holds K x K arrays and K-vectors only, so a
    # batch holds as many trials at M = 264 as at M = 99; only its draw
    # splits by M.
    seen = Counter()

    def planned(job):
        kernel, cfg, scenario, key, trials, methods = job
        seen[scenario.geometry.M, len(trials)] += 1
        return {m: np.ones((len(trials), cfg.run.t_max + 1)) for m in methods}

    monkeypatch.setattr(metrics, "_run_batch", planned)
    for M in (99, 264):
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["run.experiment=convergence", f"geometry.M={M}",
                              "run.t_max=20", "run.trials=60"])
        metrics.convergence_trace(cfg)
    assert seen == {(99, 15): 4, (264, 15): 4}


def _fix_batch_size(monkeypatch, per_batch):
    """Set the byte budget, at each batching decision, to `per_batch` trials'
    working sets and the batch's fixed term; returns the list of batch sizes
    used."""
    sizes = []
    original = metrics.trial_batches

    def batches(trials, trial_bytes, fixed_bytes=0):
        monkeypatch.setattr(metrics, "BATCH_BYTES",
                            per_batch * trial_bytes + fixed_bytes)
        out = original(trials, trial_bytes, fixed_bytes)
        sizes.extend(len(b) for b in out)
        return out

    _swap(monkeypatch, original, batches)
    return sizes


def _sha256(tmp_path, overrides):
    cfg = ExperimentConfig()
    apply_overrides(cfg, overrides)
    out = tmp_path / f"{cfg.run.experiment}.csv"
    run_experiment(cfg, str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _golden_sha256(tmp_path, experiment, *extra):
    return _sha256(tmp_path, [f"run.experiment={experiment}", *SMALL, *extra])


@pytest.mark.parametrize("case", ["se_vs_m", "convergence", "ber",
                                  "convergence-t40"])
@pytest.mark.parametrize("per_batch", [1, 2, 1000])
def test_bytes_do_not_depend_on_batching(tmp_path, monkeypatch, case,
                                         per_batch):
    # 1000 puts all trials of a grid point (5, or 4 BER draws) in one batch.
    # In convergence-t40 a Krylov column holds from the step its residual
    # vanishes, whichever trials share its batch.
    experiment, extra = golden_case(case)
    sizes = _fix_batch_size(monkeypatch, per_batch)
    assert _golden_sha256(tmp_path, experiment, *extra) == GOLDEN[case]
    assert max(sizes) == min(per_batch, 5 if experiment != "ber" else 4)


# A convergence run at M = 264 and the default K, which no golden hash pins:
# its reference is its own run at the default plan, one batch of 6 trials
# drawn in two sub-batches.
CONV_M264 = ["run.experiment=convergence", "geometry.M=264", "run.t_max=20",
             "run.trials=6"]


@pytest.mark.parametrize("case", ["se_vs_m", "convergence", "ber",
                                  "convergence-t40", "convergence-M264"])
def test_bytes_do_not_depend_on_draw_sub_batches(tmp_path, monkeypatch,
                                                 case):
    # Every trial drawn alone, each a sub-batch of its own, under one batch
    # of all the trials of a grid point.
    drawn, draw_batch = [], metrics.draw_batch

    def draw(scenario, rngs):
        drawn.append(len(rngs))
        return draw_batch(scenario, rngs)

    monkeypatch.setattr(metrics, "draw_batch", draw)
    if case == "convergence-M264":
        run = partial(_sha256, tmp_path, CONV_M264)
        expected = run()
        assert drawn == [3, 3]
        drawn.clear()
    else:
        experiment, extra = golden_case(case)
        run = partial(_golden_sha256, tmp_path, experiment, *extra)
        expected = GOLDEN[case]
    monkeypatch.setattr(metrics, "draw_bytes",
                        lambda scenario, trials: metrics.BATCH_BYTES + 1)
    sizes = _fix_batch_size(monkeypatch, 1000)
    assert run() == expected
    assert min(sizes) > 1 and set(drawn) == {1}
    assert len(drawn) == sum(sizes)


def test_se_sweep_makes_one_pass_per_batch(tmp_path, monkeypatch):
    # At the benchmark's se-sweep settings each M point's 16 trials make
    # two batches of 8, and each batch one precoder pass over a GramStack:
    # K x K arrays only, whatever M.
    passes, original = [], metrics.precode_each

    def precode(parts, *args):
        # The sub-batches' stacks, which the pass joins and empties.
        assert all(isinstance(p, precoder.GramStack) for p in parts)
        passes.append(precoder.concat_grams(parts))
        out = original(parts, *args)
        assert parts == []
        return out

    monkeypatch.setattr(metrics, "precode_each", precode)
    cfg = ExperimentConfig()
    apply_overrides(cfg, ["run.experiment=se_vs_m", "power.snr_db=25",
                          "run.trials=16"])
    run_experiment(cfg, str(tmp_path / "se.csv"))
    assert len(passes) == 2 * len(cfg.run.m_grid) == 12
    K = cfg.users.K
    for grams in passes:
        assert grams.lead == (8,) and grams.gram.shape == (24, K, K)
        assert grams.visible.shape == (24, K)


def test_ber_makes_one_pass_per_snr_point(tmp_path, monkeypatch):
    # At the benchmark's ber-qpsk settings each SNR point's 8 draws make
    # one batch, drawn at once and precoded in one pass.
    passes, draws = [], []
    precode, draw = metrics.precode_each, metrics.draw_batch

    def counted_precode(*args):
        couplings = precode(*args)
        passes.append(len(couplings["direct"]))  # B per trial of the pass
        return couplings

    def counted_draw(scenario, rngs):
        draws.append(len(rngs))
        return draw(scenario, rngs)

    monkeypatch.setattr(metrics, "precode_each", counted_precode)
    monkeypatch.setattr(metrics, "draw_batch", counted_draw)
    cfg = ExperimentConfig()
    apply_overrides(cfg, ["run.experiment=ber", "run.bits_per_point=262144"])
    run_experiment(cfg, str(tmp_path / "ber.csv"))
    assert len(cfg.run.snr_grid_db) == 6
    assert passes == draws == [8] * 6


PIPELINES = ["se_vs_m", "ber", "convergence"]
# Batch sizes at two trials per batch: 5 trials per M point, 4 BER draws per
# SNR point, both grids of two points, and 5 convergence trials.
TWO_PER_BATCH = {"se_vs_m": [1, 2, 2] * 2, "ber": [2, 2] * 2,
                 "convergence": [1, 2, 2]}


@pytest.mark.parametrize("experiment", PIPELINES)
def test_workers_split_batches_and_keep_bytes(tmp_path, monkeypatch,
                                              experiment):
    # Every batch of the run is one task of one pool of two workers.
    sizes = _fix_batch_size(monkeypatch, 2)
    assert (_golden_sha256(tmp_path, experiment, "run.workers=2")
            == GOLDEN[experiment])
    assert sizes == TWO_PER_BATCH[experiment]


@pytest.mark.parametrize("experiment", PIPELINES)
def test_one_pool_no_larger_than_the_batch_count(tmp_path, monkeypatch,
                                                 experiment):
    # A pool starts all its workers on the first task, however few tasks
    # there are: its size must be capped by the run's batch count.
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(metrics, "_pool", SerialPool)
    sizes = _fix_batch_size(monkeypatch, 2)
    assert (_golden_sha256(tmp_path, experiment, "run.workers=64")
            == GOLDEN[experiment])
    assert pools == [len(sizes)]


@pytest.mark.parametrize("experiment", PIPELINES)
def test_workers_run_with_traced_names_swapped(tmp_path, monkeypatch,
                                               experiment):
    # The tracer swaps public functions for closures, which cannot be
    # pickled; the pool must be sent only module-level kernels.
    counts = Counter()
    _count_calls(monkeypatch, counts, "se_trial", metrics.se_trial)
    _count_calls(monkeypatch, counts, "draw", scenario.draw_batch)
    _fix_batch_size(monkeypatch, 2)
    assert (_golden_sha256(tmp_path, experiment, "run.workers=2")
            == GOLDEN[experiment])


def _stream_starts(monkeypatch):
    """The generator state each trial's draw starts from, in draw order."""
    starts = []
    original = metrics.draw_batch

    def draw(scenario, rngs):
        starts.extend(rng.bit_generator.state["state"]["state"] for rng in rngs)
        return original(scenario, rngs)

    monkeypatch.setattr(metrics, "draw_batch", draw)
    return starts


def test_se_streams_differ_where_seed_plus_m_folds_collided(tmp_path,
                                                             monkeypatch):
    # seed + 1_000_003 * M is 102000306 for both (3000009, 99) and (0, 102).
    starts = _stream_starts(monkeypatch)
    for seed, M in ((3_000_009, 99), (0, 102)):
        cfg = small_config(**{"run.experiment": "se_vs_m", "run.seed": seed,
                              "run.m_grid": f"[{M}]", "run.trials": 2,
                              "run.methods": "[direct]"})
        run_experiment(cfg, str(tmp_path / "se.csv"))
    assert len(starts) == 4
    assert len(set(starts)) == 4


def test_ber_streams_differ_where_trial_and_grid_index_folded(tmp_path,
                                                              monkeypatch):
    # trial * len(grid) + ig is 2 for (trial 1, ig 0) on a two-point grid
    # and for (trial 0, ig 2) on a three-point grid.
    starts = _stream_starts(monkeypatch)
    runs = []
    for grid in ("[0.0, 10.0]", "[0.0, 10.0, 20.0]"):
        cfg = small_config(**{"run.experiment": "ber", "run.snr_grid_db": grid,
                              "run.bits_per_point": 1024,
                              "run.methods": "[direct]"})
        starts.clear()
        run_experiment(cfg, str(tmp_path / "ber.csv"))
        runs.append(list(starts))
    draws = 2  # 1024 bits over 2 * K * symbols_per_channel = 512 per draw
    assert [len(r) for r in runs] == [2 * draws, 3 * draws]
    assert runs[0][0 * draws + 1] != runs[1][2 * draws + 0]
    # The same (grid index, trial) key gives the same stream on both grids.
    assert runs[0][:2 * draws] == runs[1][:2 * draws]


def test_pipelines_draw_from_disjoint_streams(tmp_path, monkeypatch):
    starts = _stream_starts(monkeypatch)
    seen = []
    for experiment in ("se_vs_m", "ber", "convergence"):
        starts.clear()
        run_experiment(_small(experiment), str(tmp_path / "out.csv"))
        seen.append(set(starts))
    assert all(seen)
    assert sum(len(s) for s in seen) == len(set.union(*seen))


# At -200 dB, xi = 1e20 dwarfs every Gram entry and RZF tends to the matched
# filter: each pipeline still finishes, with a finite value in every row.
@pytest.mark.parametrize("experiment, item", [
    ("se_vs_m", "power.snr_db=-200"), ("ber", "run.snr_grid_db=[-200.0]")])
def test_pipelines_finish_at_low_snr(tmp_path, experiment, item):
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *SMALL, item])
    _assert_finite_rows(cfg, tmp_path)


# ROADMAP item 19: 156 dB is inside validate's bound (156.5 dB at M = 99),
# but at M = 24 the Gram-domain power of direct RZF rounds to
# tr(F^H F) <= 0 in every block of trials 14 and 39, and the run fails.
# A mend of item 19 turns this into a pass.
@pytest.mark.xfail(strict=True, raises=DegenerateChannelError)
def test_pipelines_finish_at_high_snr(tmp_path):
    cfg = ExperimentConfig()
    apply_overrides(cfg, ["run.experiment=se_vs_m", "run.m_grid=[24]",
                          "power.snr_db=156"])
    _assert_finite_rows(cfg, tmp_path)


def test_diverged_precoder_raises():
    # ROADMAP item 22: JOR at omega = 1 diverges on most central Grams.
    # After 1300 steps W is still finite, but tr(F^H F) = Re <W, H^H H W>
    # overflows; that must raise, not give the block beta = 0.
    cfg = ExperimentConfig()
    apply_overrides(cfg, ["geometry.M=66", "run.m_grid=[66]", "run.trials=1",
                          "run.methods=[jor]", "solver.T=1300"])
    with pytest.raises(NonFiniteError, match="tr"):
        list(metrics.se_montecarlo(cfg))


def _assert_finite_rows(cfg, tmp_path):
    """Run `cfg`: one row per method (and M), each value finite."""
    out = tmp_path / "out.csv"
    run_experiment(cfg, str(out))
    _, *rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == len(cfg.run.methods) * (
        len(cfg.run.m_grid) if cfg.run.experiment == "se_vs_m" else 1)
    assert all(math.isfinite(float(v)) for row in rows
               for v in row.split(",")[2:])
