"""Which xlmimo functions are traced, and the per-layer metrics their spans give.

Tracing is outside-in: the program is not edited.  Each public function that
other modules call is replaced, for the length of a traced CLI call, in
every ``xlmimo`` module that holds a reference to it (``from .x import y``
copies the reference), and in the solver dispatch table.
"""

import sys
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from .spans import self_times

METHODS = ("direct", "gs", "jor", "cg", "jacpcg")
M_ENDS = (99, 264)   # ends of the default m_grid
ROOT_SPAN = "cli.main"


def _method_of(args, kwargs):
    method = kwargs["method"] if "method" in kwargs else args[3]
    return f"precoder.build_precoder.{method}"


def _draw_attrs(args, kwargs, result):
    return {"M": args[0].geometry.M}


def _precoder_attrs(args, kwargs, result):
    return {"M": args[0].H.shape[0]}


def _solve_attrs(args, kwargs, result):
    P, rhs = args[0].P, args[0].rhs
    return {"n": P.shape[0], "nrhs": 1 if rhs.ndim == 1 else rhs.shape[1],
            "iters": result.iterations}


# (defining module, function, span name, attrs)
LAYERS = (
    ("config", "apply_overrides", "config.apply_overrides", None),
    ("experiments", "run_experiment", "experiments.run_experiment", None),
    ("scenario", "build_scenario", "scenario.build_scenario", None),
    ("scenario", "draw_trial", "scenario.draw_trial", _draw_attrs),
    ("geometry", "drop_users", "geometry.drop_users", None),
    ("geometry", "sample_vr", "geometry.sample_vr", None),
    ("channel", "assemble_from_user_channels",
     "channel.assemble_from_user_channels", None),
    ("precoder", "gram_regularized", "precoder.gram_regularized", None),
    ("precoder", "build_precoder", _method_of, _precoder_attrs),
    ("linsolve", "direct_solve", "linsolve.direct", _solve_attrs),
    ("metrics", "sinr_eq9", "metrics.sinr_eq9", None),
    ("metrics", "se_trial", "metrics.se_trial", None),
    ("metrics", "coupling_matrix", "metrics.coupling_matrix", None),
    ("metrics", "qpsk_modulate", "metrics.qpsk_modulate", None),
    ("metrics", "qpsk_detect", "metrics.qpsk_detect", None),
    ("metrics", "ber_montecarlo", "metrics.ber_montecarlo", None),
    ("metrics", "convergence_trace", "metrics.convergence_trace", None),
)


@contextmanager
def patched(recorder):
    """Route every layer call through ``recorder`` until the block exits."""
    import xlmimo.linsolve

    saved = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "xlmimo" or n.startswith("xlmimo."))]
    for module, func, name, attrs in LAYERS:
        original = getattr(sys.modules[f"xlmimo.{module}"], func)
        wrapper = recorder.wrap(original, name, attrs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
    table = xlmimo.linsolve.ITERATIVE_SOLVERS
    saved_table = dict(table)
    for method, fn in saved_table.items():
        table[method] = recorder.wrap(fn, f"linsolve.{method}", _solve_attrs)
    try:
        yield
    finally:
        table.update(saved_table)
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def add_model_flops(spans) -> None:
    """Attach the closed-form flop model to every solver span.

    The model is computed from ``xlmimo.flops.flop_model``, not counted:
    the init cost once per system, the per-iteration cost once per
    right-hand side and iteration; direct's init is the full inverse.
    """
    from xlmimo.flops import flop_model

    for span in spans:
        if not span["name"].startswith("linsolve."):
            continue
        a = span["attrs"]
        method = span["name"].split(".", 1)[1]
        model = flop_model(method, a["n"], max(1, a["iters"]))
        a["model_flops"] = model.init_flops + (
            0 if method == "direct" else a["nrhs"] * a["iters"] * model.per_iter_flops)


# --- per-layer metric catalogue -------------------------------------------

def _catalogue():
    out = [("cli.import_s", "s", "lower"),
           ("config.apply_overrides_s", "s", "lower")]
    for name, stats in (
            ("scenario.build_scenario", ("calls", "self_s")),
            ("scenario.draw_trial", ("calls", "self_s")),
            ("geometry.drop_users", ("self_s",)),
            ("geometry.sample_vr", ("calls", "self_s")),
            ("channel.assemble_from_user_channels", ("self_s",)),
            ("precoder.gram_regularized", ("calls", "self_s"))):
        out += [(f"{name}.{s}", "count" if s == "calls" else "s", "lower")
                for s in stats]
    out += [(f"precoder.build_precoder.{m}.self_s", "s", "lower") for m in METHODS]
    for m in METHODS:
        out += [(f"linsolve.{m}.calls", "count", "lower"),
                (f"linsolve.{m}.self_s", "s", "lower"),
                (f"linsolve.{m}.us_per_solve", "us", "lower"),
                (f"linsolve.{m}.iters_mean", "iter", "lower"),
                (f"linsolve.{m}.model_flops", "flop", "lower"),
                (f"linsolve.{m}.model_mflops_per_s", "Mflop/s", "higher")]
    out += [(f"metrics.{f}.self_s", "s", "lower") for f in (
        "sinr_eq9", "se_trial", "coupling_matrix", "qpsk_modulate",
        "qpsk_detect", "ber_montecarlo", "convergence_trace")]
    out.append(("experiments.run_experiment.self_s", "s", "lower"))
    for name in ["scenario.draw_trial"] + [f"precoder.build_precoder.{m}"
                                           for m in METHODS]:
        out += [(f"{name}.ms_per_call.M{M}", "ms", "lower") for M in M_ENDS]
    out += [("trace.overhead_frac", "1", "lower"),
            ("trace.unattributed_frac", "1", "lower"),
            ("trace.loop_s", "s", "lower")]
    return out


METRICS = _catalogue()


def per_layer_metrics(trace: dict, untraced_s: list, traced_s: list) -> dict:
    """Per-layer metric values, per traced CLI call, from one trace dump.

    Counts and self times are averaged over the traced calls; a layer that a
    workload never calls reads 0.  ``traced_s``/``untraced_s`` are the
    durations of the traced and untraced CLI calls.
    """
    spans = trace["spans"]
    loops = max(1, len(traced_s))
    selfs = self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    iters, flops = defaultdict(int), defaultdict(float)
    at_m = defaultdict(list)
    for span, st in zip(spans, selfs):
        name = span["name"]
        calls[name] += 1
        self_s[name] += st
        a = span["attrs"]
        iters[name] += a.get("iters", 0)
        flops[name] += a.get("model_flops", 0)
        if "M" in a:
            at_m[(name, a["M"])].append(span["end"] - span["start"])

    values = {"cli.import_s": trace["import_s"],
              "config.apply_overrides_s": self_s["config.apply_overrides"] / loops}
    for metric, _, _ in METRICS:
        if metric in values or metric.startswith("trace."):
            continue
        if ".ms_per_call.M" in metric:
            name, M = metric.split(".ms_per_call.M")
            durations = at_m[(name, int(M))]
            values[metric] = 1e3 * sum(durations) / len(durations) if durations else 0.0
            continue
        name, stat = metric.rsplit(".", 1)
        n = calls[name]
        values[metric] = {
            "calls": n / loops,
            "self_s": self_s[name] / loops,
            "us_per_solve": 1e6 * self_s[name] / n if n else 0.0,
            "iters_mean": iters[name] / n if n else 0.0,
            "model_flops": flops[name] / loops,
            "model_mflops_per_s": flops[name] / self_s[name] / 1e6 if n else 0.0,
        }[stat]

    root = [i for i, s in enumerate(spans) if s["name"] == ROOT_SPAN]
    root_total = sum(spans[i]["end"] - spans[i]["start"] for i in root)
    values["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    values["trace.unattributed_frac"] = (sum(selfs[i] for i in root) / root_total
                                         if root_total else 0.0)
    values["trace.loop_s"] = median(traced_s)
    return values


def attributed_s(trace: dict) -> float:
    """Summed self time of every layer span: with the root's self time
    (the unattributed part) it accounts for the traced loop time."""
    spans = trace["spans"]
    return sum(st for s, st in zip(spans, self_times(spans))
               if s["name"] != ROOT_SPAN)
