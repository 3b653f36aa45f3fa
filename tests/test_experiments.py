"""Experiment pipelines: work done per grid point, output bytes that do not
depend on how trials are batched, and the call paths that an outside-in
tracer (perfbench/xlbench/layers.py) counts by swapping module attributes
and solver-table entries."""

import hashlib
import sys
import tracemalloc
from collections import Counter

import pytest

from helpers import small_config
from test_golden import GOLDEN, SMALL, golden_case
from xlmimo import channel, geometry, linsolve, metrics, precoder, scenario
from xlmimo.config import ExperimentConfig, apply_overrides
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
    # The tracer swaps the iterative solvers in the dispatch table only.
    for method, fn in list(linsolve.ITERATIVE_SOLVERS.items()):
        monkeypatch.setitem(linsolve.ITERATIVE_SOLVERS, method,
                            _counting(counts, method, fn))

    # se_vs_m: per batch of trials, one Gram per block group (the stacked
    # side blocks, the central block), shared by every method, and one solve
    # per method and size class of visible users.  At this size every user
    # sees every antenna, so the side blocks make one class (K/2) and the
    # central block another (K), and the trials of an M point make one
    # batch.
    cfg = _small("se_vs_m")
    assert all(len(metrics.trial_batches(
        TRIALS, metrics.precoding_bytes(build_scenario(cfg, M)))) == 1
        for M in M_GRID)
    run_experiment(cfg, str(tmp_path / "se.csv"))
    solves = 2 * len(M_GRID)
    assert counts == Counter({**{m: solves for m in linsolve.METHODS},
                              "gram": solves})

    # convergence: one Gram stack per batch, one solve per iterative method.
    counts.clear()
    run_experiment(_small("convergence"), str(tmp_path / "conv.csv"))
    assert counts == Counter({**{m: 1 for m in linsolve.ITERATIVE_SOLVERS},
                              "gram": 1})


# Each pipeline at both ends of the M grid, or at the benchmark's ber-qpsk
# settings: the overrides and the batch sizes they give.
@pytest.mark.parametrize("experiment, items, sizes", [
    ("se_vs_m", ["run.m_grid=[99]", "run.trials=12"], [6, 6]),
    ("se_vs_m", ["run.m_grid=[264]", "run.trials=6"], [3, 3]),
    ("ber", ["run.bits_per_point=262144"], [4, 4] * 6),
    ("convergence", ["run.t_max=20", "run.trials=15"], [15]),
    ("convergence", ["geometry.M=264", "run.t_max=20", "run.trials=20"],
     [5] * 4),
    # Far past convergence the iterate history outgrows the draw.
    ("convergence", ["run.t_max=300", "run.trials=6"], [3, 3])],
    ids=["se_vs_m-M99", "se_vs_m-M264", "ber-qpsk", "convergence-M99",
         "convergence-M264", "convergence-tmax300"])
def test_batch_peak_within_budget(experiment, items, sizes, tmp_path,
                                  monkeypatch):
    # Every batch holds at most BATCH_BYTES at once, draw and kernel
    # together.
    peaks, seen = [], []
    run_batch = metrics._run_batch

    def traced(job):
        seen.append(len(job[4]))
        tracemalloc.start()
        try:
            return run_batch(job)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(metrics, "_run_batch", traced)
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *items])
    run_experiment(cfg, str(tmp_path / "out.csv"))
    assert seen == sizes
    assert max(peaks) <= metrics.BATCH_BYTES


def _fix_batch_size(monkeypatch, per_batch):
    """Set the byte budget, at each batching decision, to `per_batch` trials'
    working sets; returns the list of batch sizes used."""
    sizes = []
    original = metrics.trial_batches

    def batches(trials, trial_bytes):
        monkeypatch.setattr(metrics, "BATCH_BYTES", per_batch * trial_bytes)
        out = original(trials, trial_bytes)
        sizes.extend(len(b) for b in out)
        return out

    _swap(monkeypatch, original, batches)
    return sizes


def _golden_sha256(tmp_path, experiment, *extra):
    cfg = ExperimentConfig()
    apply_overrides(cfg, [f"run.experiment={experiment}", *SMALL, *extra])
    out = tmp_path / f"{experiment}.csv"
    run_experiment(cfg, str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


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
