"""Tests of the benchmark itself: span arithmetic, output checks, child env.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from xlbench import checks, childenv, layers, procs  # noqa: E402
from xlbench.child import PROBE_MARK  # noqa: E402
from xlbench.spans import Recorder, self_times  # noqa: E402
from xlbench.workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": {}}


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("a1", 2.0, 3.0, 1),
        _span("b1", 6.0, 7.0, 2),
        _span("b2", 6.5, 8.0, 2),     # overlaps b1: covered once
        _span("c", 9.5, 11.0, 0),     # runs past its parent: clipped
    ]
    got = self_times(spans)
    want = [10 - 3 - 4 - 0.5, 3 - 1, 4 - 2, 1, 1, 1.5, 1.5]
    assert got == pytest.approx(want)


def test_recorder_nests_spans_and_accounts_for_the_loop():
    rec = Recorder()
    inner = rec.wrap(lambda x: x + 1, "layer.inner")
    outer = rec.wrap(lambda x: inner(inner(x)), "layer.outer",
                     attrs=lambda a, k, r: {"result": r})
    with rec.span(layers.ROOT_SPAN):
        assert outer(1) == 3
    names = [s["name"] for s in rec.spans]
    assert names == [layers.ROOT_SPAN, "layer.outer", "layer.inner", "layer.inner"]
    assert [s["parent"] for s in rec.spans] == [-1, 0, 1, 1]
    assert rec.spans[1]["attrs"] == {"result": 3}
    root = rec.spans[0]
    trace = {"import_s": 0.5, "spans": rec.spans}
    seconds = root["end"] - root["start"]
    values = layers.per_layer_metrics(trace, [seconds], [seconds])
    unattributed = values["trace.unattributed_frac"] * seconds
    assert layers.attributed_s(trace) + unattributed == pytest.approx(seconds)
    assert values["trace.overhead_frac"] == 0.0


BER_CFG = {"users": {"K": 2},
           "run": {"experiment": "ber", "methods": ["direct", "cg"],
                   "snr_grid_db": [0.0, 2.0], "bits_per_point": 10,
                   "symbols_per_channel": 4}}
BER_REF = {"ber": {"z": 8.0, "floor": 1e-5, "absolute": {
    "0/direct": [0.25, 0.01], "0/cg": [0.25, 0.01],
    "2/direct": [0.125, 0.01], "2/cg": [0.125, 0.01]}, "paired": {
    "snr_db=0/cg-direct": [0.0, 0.001], "snr_db=2/cg-direct": [0.0, 0.001],
    "all/cg-direct": [0.0, 0.01]}}}


def _write_ber(tmp_path, rows):
    path = tmp_path / "ber.csv"
    lines = ["snr_db,method,ber,bit_errors,bits"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


GOOD_ROWS = [["0", "direct", "0.25", "4", "16"], ["0", "cg", "0.25", "4", "16"],
             ["2", "direct", "0.125", "2", "16"], ["2", "cg", "0.125", "2", "16"]]


def test_checker_accepts_a_good_csv(tmp_path):
    assert checks.check_csv(_write_ber(tmp_path, GOOD_ROWS), BER_CFG, BER_REF) == []


@pytest.mark.parametrize("rows, needle", [
    (GOOD_ROWS[:2] + [[checks.TRUNCATION_MARKER, "NotHpdError", "", "", ""]],
     "truncation"),
    (GOOD_ROWS[:3] + [["2", "cg", "nan", "2", "16"]], "non-finite"),
    (GOOD_ROWS[:3], "row set"),
    (GOOD_ROWS[:3] + [["4", "cg", "0.125", "2", "16"]], "row set"),
    (GOOD_ROWS[:3] + [["2", "cg", "1.5", "24", "16"]], "outside [0, 1]"),
    (GOOD_ROWS[:3] + [["2", "cg", "0.5", "8", "16"]], "absolute ber"),
    (GOOD_ROWS[:3] + [["2", "cg", "0.1875", "3", "16"]], "snr_db=2/cg-direct: paired"),
])
def test_checker_rejects(tmp_path, rows, needle):
    problems = checks.check_csv(_write_ber(tmp_path, rows), BER_CFG, BER_REF)
    assert problems and any(needle in p for p in problems), problems


REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def test_reference_matches_workload_configs():
    for wl in WORKLOADS.values():
        ref = REFERENCE[wl.scenario]
        assert ref["overrides"] == list(wl.overrides)
        for kind in ("absolute", "paired"):
            assert all(sd >= 0 and math.isfinite(m) for m, sd in ref[kind].values())


def _rows_at_reference_means(scenario):
    column, log = checks.REFERENCE_STAT[scenario]
    rows = []
    for key, (mean, _) in REFERENCE[scenario]["absolute"].items():
        a, b = key.split("/")
        row = {"se_vs_m": {"M": a, "method": b}, "ber": {"snr_db": a, "method": b},
               "convergence": {"method": a, "t": b}}[scenario]
        row[column] = 10 ** mean if log else mean
        rows.append(row)
    return rows


# Swaps of one method's values for another's that the reference check cannot
# see: the two methods agree within seed noise (direct, gs and, on ber,
# jacpcg), or the method takes the values of a more accurate one.  Every other
# swap, e.g. jacpcg losing its preconditioner (jacpcg -> cg) or direct
# behaving like jor, must fail.
PASSING_SWAPS = {
    "se_vs_m": {("direct", "gs"), ("gs", "direct"), ("jacpcg", "gs")},
    "ber": {("direct", "gs"), ("direct", "jacpcg"), ("gs", "direct"),
            ("gs", "jacpcg"), ("jacpcg", "direct"), ("jacpcg", "gs"),
            ("cg", "direct"), ("cg", "gs"), ("cg", "jacpcg"),
            ("jor", "direct"), ("jor", "gs"), ("jor", "cg"), ("jor", "jacpcg")},
    "convergence": set(),
}


@pytest.mark.parametrize("scenario", list(checks.REFERENCE_STAT))
def test_reference_catches_a_method_swapped_for_another(scenario):
    column = checks.REFERENCE_STAT[scenario][0]
    ref = REFERENCE[scenario]
    rows = _rows_at_reference_means(scenario)
    assert checks.reference_problems(scenario, rows, ref) == []
    value = {checks.row_key(scenario, r): r[column] for r in rows}
    methods = list(dict.fromkeys(r["method"] for r in rows))
    passed = set()
    for a in methods:
        for b in methods:
            if a == b:
                continue
            swapped = [dict(r, **{column: value[checks.row_key(scenario, dict(r, method=b))]})
                       if r["method"] == a else r for r in rows]
            if not checks.reference_problems(scenario, swapped, ref):
                passed.add((a, b))
    assert passed <= PASSING_SWAPS[scenario]


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {n: WORKLOADS[n].why for n in ("se-sweep", "ber-qpsk", "conv-trace")}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.METRICS)


def test_child_env_has_blas_variables_unset(tmp_path):
    polluted = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                    MKL_NUM_THREADS="1", GOTO_NUM_THREADS="1")
    env, removed = childenv.child_env(polluted, HERE.parent)
    assert set(childenv.BLAS_VARS) <= set(removed)
    wl = WORKLOADS["conv-trace"]
    r = procs.launch(["probe", *wl.cli_args(0, str(tmp_path / "x.csv"))],
                     env, HERE.parent, tmp_path / "probe")
    assert r["rc"] == 0, r["stderr_tail"]
    line = next(ln for ln in r["stdout"].splitlines() if ln.startswith(PROBE_MARK))
    info = json.loads(line[len(PROBE_MARK):])
    assert info["env"]["blas_vars_seen"] == {v: None for v in childenv.BLAS_VARS}
    assert info["config"]["run"]["t_max"] == 20
