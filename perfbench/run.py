"""xlmimo benchmark: runs one workload through the CLI and reports its metrics.

    python3 perfbench/run.py --workload se-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` launches the CLI (``xlmimo.cli``, ``src/`` on the path) as a
fresh process again and again for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` runs the CLI in-process with spans at the module
boundaries and reports the per-layer metrics.  Every CSV is checked.  A
table goes to stdout, a results file to ``perfbench/results/``, and the last
stdout line is one JSON object.  See ``perfbench/README.md``.
"""

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from xlbench import checks, childenv, layers, procs  # noqa: E402
from xlbench.child import PROBE_MARK, SETUP_MARK  # noqa: E402
from xlbench.workloads import WORKLOADS, trial_count  # noqa: E402

END_TO_END = (("wall_s", "s"), ("trials_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_PROBES = 5


class BenchError(Exception):
    """The program cannot be set up or traced at all; no result is printed."""


def _probe(wl, seed, env, work, i) -> dict:
    r = procs.launch(["probe", *wl.cli_args(seed, str(work / "probe.csv"))],
                     env, ROOT, work / f"probe{i}")
    lines = [ln for ln in r["stdout"].splitlines() if ln.startswith(PROBE_MARK)]
    if r["rc"] != 0 or not lines:
        raise BenchError(f"set-up probe exited {r['rc']}: {r['stderr_tail']}")
    info = json.loads(lines[0][len(PROBE_MARK):])
    info["setup_s"] = info["setup_done"] - r["started"]
    return info


def _launch(wl, seed, env, work, i, cfg, reference) -> dict:
    csv_path = work / f"run{i}.csv"
    r = procs.launch(["run", *wl.cli_args(seed, str(csv_path))],
                     env, ROOT, work / f"run{i}")
    marks = [ln for ln in r["stdout"].splitlines() if ln.startswith(SETUP_MARK)]
    r["setup_s"] = float(marks[0].split()[1]) - r["started"] if marks else None
    r["csv"] = str(csv_path)
    r["problems"] = ([f"exit code {r['rc']}: {r['stderr_tail'][-300:]}"]
                     if r["rc"] != 0 else checks.check_csv(r["csv"], cfg, reference))
    del r["stdout"]
    return r


def _summary(values) -> dict:
    """Median with quartiles and extremes."""
    n = len(values)
    if n == 0:
        return {"value": 0.0, "n": 0}
    out = {"value": median(values), "n": n, "min": min(values), "max": max(values)}
    if n >= 2:
        q = quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def end_to_end(wl, seed, seconds, env, work, reference) -> dict:
    probes = [_probe(wl, seed, env, work, i) for i in range(SETUP_PROBES)]
    cfg = probes[0]["config"]
    trials = trial_count(cfg)
    attempts = []
    twin_bytes = twin = None
    if wl.twin_workers:
        twin = _launch(dataclasses.replace(wl, workers=wl.twin_workers), seed,
                       env, work, "twin", cfg, reference)
        attempts.append(twin)
        twin_bytes = Path(twin["csv"]).read_bytes() if twin["rc"] == 0 else b""
    runs = []
    started = time.monotonic()
    while not runs or time.monotonic() - started < seconds:
        r = _launch(wl, seed, env, work, len(runs), cfg, reference)
        if twin_bytes is not None and r["rc"] == 0 \
                and Path(r["csv"]).read_bytes() != twin_bytes:
            r["problems"].append(f"CSV differs from the --workers "
                                 f"{wl.twin_workers} CSV of the same seed")
        runs.append(r)
    attempts += runs
    timed = [r for r in runs if r["setup_s"] is not None]
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "trials_per_s": [trials / (r["wall_s"] - r["setup_s"]) for r in timed],
        "setup_s": [p["setup_s"] for p in probes] + [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    failed = sum(bool(a["problems"]) for a in attempts)
    return {
        "env": probes[0]["env"], "trials_per_cli_run": trials,
        # One unmeasured launch with the other worker count: tracked, not gated.
        "twin": twin and {"workers": wl.twin_workers,
                          **{k: twin[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}},
        "metrics": {name: {**_summary(samples[name]), "unit": unit}
                    for name, unit in END_TO_END},
        "fail_frac": {"value": failed / len(attempts), "unit": "1",
                      "failed": failed, "attempted": len(attempts)},
        "samples": samples,
        "attempts": attempts,
    }


def traced(wl, seed, seconds, env, work, reference) -> dict:
    probe = _probe(wl, seed, env, work, 0)
    cfg = probe["config"]
    dump = work / "trace.json"
    r = procs.launch(["trace", str(seconds), str(dump),
                      *wl.cli_args(seed, str(work / "trace{i}.csv"))],
                     env, ROOT, work / "trace")
    if not dump.is_file():
        raise BenchError(f"traced run exited {r['rc']} without spans: "
                         f"{r['stderr_tail']}")
    trace = json.loads(dump.read_text(encoding="utf-8"))
    calls = trace["calls"]
    first = Path(calls[0]["csv"]).read_bytes() if calls[0]["rc"] == 0 else b""
    for c in calls:
        if c["rc"] != 0 or c["error"]:
            c["problems"] = [f"exit code {c['rc']}: {c['error']}"]
            continue
        c["problems"] = checks.check_csv(c["csv"], cfg, reference)
        if Path(c["csv"]).read_bytes() != first:
            c["problems"].append("CSV differs from the first untraced call's")
    untraced_s = [c["seconds"] for c in calls if not c["traced"] and not c["warmup"]]
    traced_s = [c["seconds"] for c in calls if c["traced"]]
    failed = sum(bool(c["problems"]) for c in calls)
    if not traced_s or not untraced_s:
        raise BenchError(f"traced run failed: {calls[-1]['problems']}")
    values = layers.per_layer_metrics(trace, untraced_s, traced_s)
    loop_total = sum(traced_s)
    return {
        "env": probe["env"], "trials_per_cli_run": trial_count(cfg),
        "metrics": {name: {"value": values[name], "unit": unit, "better": better}
                    for name, unit, better in layers.METRICS},
        "fail_frac": {"value": failed / len(calls), "unit": "1",
                      "failed": failed, "attempted": len(calls)},
        "accounting": {
            "traced_loop_s_total": loop_total,
            "layer_self_s_total": layers.attributed_s(trace),
            "unattributed_s_total": values["trace.unattributed_frac"] * loop_total,
            "note": ("worker processes are forked and their spans are not "
                     "collected: only parent-side layers are measured")
            if wl.workers > 1 else "single process: every layer is measured",
        },
        "samples": {"untraced_s": untraced_s, "traced_s": traced_s},
        "calls": calls,
    }


def _print_table(name, seed, trace, res) -> None:
    ff = res["fail_frac"]
    print(f"xlmimo benchmark  workload={name}  seed={seed}  trace={trace}  "
          f"failed {ff['failed']} of {ff['attempted']} CLI runs")
    for metric, m in res["metrics"].items():
        extra = (f"median of {m['n']} (q1 {m.get('q1', m['value']):.6g}, "
                 f"q3 {m.get('q3', m['value']):.6g})" if "n" in m else "")
        print(f"  {metric:<46} {m['value']:>14.6g} {m['unit']:<8} {extra}")
    print(f"  {'fail_frac':<46} {ff['value']:>14.6g} {'1':<8} failed / attempted")
    if res.get("twin"):
        t = res["twin"]
        print(f"  twin launch with --workers {t['workers']} (one sample, not gated): "
              f"wall_s {t['wall_s']:.4f} s, peak_rss_mb {t['peak_rss_mb']:.2f} MB")
    if "accounting" in res:
        a = res["accounting"]
        print(f"  accounting: traced loop {a['traced_loop_s_total']:.4f} s = layer "
              f"self {a['layer_self_s_total']:.4f} s + unattributed "
              f"{a['unattributed_s_total']:.4f} s; {a['note']}")


def run_one(name, seed, seconds, trace) -> None:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    env, removed = childenv.child_env(dict(os.environ), ROOT)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    try:
        measure = traced if trace else end_to_end
        res = measure(WORKLOADS[name], seed, seconds, env, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["env"].update(childenv.host_block(ROOT, removed))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **res}
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    _print_table(name, seed, trace, res)
    print(f"  results: {path.relative_to(ROOT)}")
    ff = res["fail_frac"]
    line = {"correct": ff["failed"] == 0, "attempted": ff["attempted"],
            "failed": ff["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in res["metrics"].items()}}
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xlmimo" / "cli.py").is_file():
        print(f"no xlmimo sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_one(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
