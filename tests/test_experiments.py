"""Experiment pipelines: work done per grid point, and the call paths that an
outside-in tracer (perfbench/xlbench/layers.py) counts by swapping module
attributes and solver-table entries."""

import sys
from collections import Counter

from helpers import small_config
from xlmimo import experiments, linsolve, precoder
from xlmimo.experiments import run_experiment

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


def _count_calls(monkeypatch, counts, name, original):
    """Swap `original` for a counting wrapper in every xlmimo module that
    holds it, the way the tracer does."""
    wrapper = _counting(counts, name, original)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "xlmimo"
                                  or modname.startswith("xlmimo.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)


def test_se_vs_m_builds_one_scenario_per_m(tmp_path, monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts, "build_scenario",
                 experiments.build_scenario)
    run_experiment(_small("se_vs_m"), str(tmp_path / "se.csv"))
    assert counts["build_scenario"] == len(M_GRID)


def test_tracer_hooks_reach_every_method(tmp_path, monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts, "direct", linsolve.direct_solve)
    _count_calls(monkeypatch, counts, "gram", precoder.gram_regularized)
    # The tracer swaps the iterative solvers in the dispatch table only.
    for method, fn in list(linsolve.ITERATIVE_SOLVERS.items()):
        monkeypatch.setitem(linsolve.ITERATIVE_SOLVERS, method,
                            _counting(counts, method, fn))

    # se_vs_m: one solve per method, channel block and trial.
    run_experiment(_small("se_vs_m"), str(tmp_path / "se.csv"))
    solves = 3 * len(M_GRID) * TRIALS
    assert counts == Counter({**{m: solves for m in linsolve.METHODS},
                              "gram": solves * len(linsolve.METHODS)})

    # convergence: one Gram matrix per trial, one solve per iterative method.
    counts.clear()
    run_experiment(_small("convergence"), str(tmp_path / "conv.csv"))
    assert counts == Counter({**{m: TRIALS for m in linsolve.ITERATIVE_SOLVERS},
                              "gram": TRIALS})
