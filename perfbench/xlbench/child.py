"""Entry point of every child process the benchmark starts.

    python perfbench/xlbench/child.py run   CLI_ARGS...
    python perfbench/xlbench/child.py probe CLI_ARGS...
    python perfbench/xlbench/child.py trace SECONDS DUMP.json CLI_ARGS...

``run`` is the xlmimo CLI (``xlmimo.cli.main``) with one addition: when
``run_experiment`` is entered it prints ``XLBENCH_SETUP <monotonic time>``,
which marks the end of set-up.  ``probe`` stops there instead, after printing
the resolved config and the numerical environment as ``XLBENCH_PROBE
<json>``.  ``trace`` runs the CLI in-process, alternating untraced and traced
calls for SECONDS, and dumps the spans to DUMP.json; ``{i}`` in CLI_ARGS is
replaced by the call's index.
"""

import sys
import time
from pathlib import Path

SETUP_MARK = "XLBENCH_SETUP"
PROBE_MARK = "XLBENCH_PROBE"


def _openblas() -> list:
    """Version string and thread count of every OpenBLAS this process loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({f.split()[5] for f in fh
                        if len(f.split()) > 5 and "openblas" in f.split()[5]})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            found.append({"lib": Path(path).name, "threads": threads(),
                          "config": config().decode()})
            break
    return found


def probe(cli, argv) -> int:
    import json
    import os

    def report(cfg, out_path):
        done = time.monotonic()
        import numpy
        import scipy
        from xlmimo.config import config_to_dict

        from xlbench.childenv import BLAS_VARS

        info = {"setup_done": done, "config": config_to_dict(cfg), "env": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas(),
            "blas_vars_seen": {v: os.environ.get(v) for v in BLAS_VARS}}}
        print(PROBE_MARK, json.dumps(info), flush=True)
        return out_path

    cli.run_experiment = report
    return cli.main(argv)


def run(cli, argv) -> int:
    real = cli.run_experiment

    def marked(cfg, out_path):
        print(SETUP_MARK, repr(time.monotonic()), flush=True)
        return real(cfg, out_path)

    cli.run_experiment = marked
    return cli.main(argv)


def trace(seconds: float, dump: str, argv) -> int:
    import contextlib
    import io
    import json
    import traceback
    from time import perf_counter

    from xlbench.layers import ROOT_SPAN, add_model_flops, patched
    from xlbench.spans import Recorder

    start = perf_counter()
    import xlmimo.cli as cli
    import_s = perf_counter() - start

    rec = Recorder()
    calls = []

    def call(traced: bool, warmup: bool = False) -> bool:
        i = len(calls)
        args = [a.replace("{i}", str(i)) for a in argv]
        entry = {"traced": traced, "warmup": warmup, "rc": 1, "error": None,
                 "csv": args[args.index("--out") + 1], "seconds": 0.0}
        calls.append(entry)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if traced:
                    with patched(rec), rec.span(ROOT_SPAN) as root:
                        entry["rc"] = cli.main(args)
                    entry["seconds"] = root["end"] - root["start"]
                else:
                    t0 = perf_counter()
                    entry["rc"] = cli.main(args)
                    entry["seconds"] = perf_counter() - t0
        except Exception:  # reported as a failed call, then the loop stops
            entry["error"] = traceback.format_exc()
        return entry["rc"] == 0

    ok = call(False, warmup=True)
    pair = 0
    while ok and (pair == 0 or perf_counter() - start < seconds):
        order = (False, True) if pair % 2 == 0 else (True, False)
        ok = call(order[0]) and call(order[1])
        pair += 1
    add_model_flops(rec.spans)
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "calls": calls, "spans": rec.spans}, fh)
    return 0 if ok else 1


def main(argv) -> int:
    mode = argv[0]
    if mode == "trace":
        return trace(float(argv[1]), argv[2], argv[3:])
    import xlmimo.cli as cli
    return {"run": run, "probe": probe}[mode](cli, argv[1:])


if __name__ == "__main__":
    # Import the benchmark's package from perfbench/, not its modules from here.
    sys.path[0] = str(Path(__file__).resolve().parents[1])
    raise SystemExit(main(sys.argv[1:]))
