"""The program pins BLAS to one thread by itself, and an explicit setting wins;
it runs on numpy alone.

Each case runs the CLI in a fresh interpreter whose environment carries no
BLAS thread variable (or only the one the case sets), so the result does not
depend on ``conftest.py`` or on the shell the suite runs in.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, SMALL

SRC = Path(__file__).resolve().parent.parent / "src"
# Spelled out, not read from the package, so a shorter list there still fails.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")


def _run(tmp_path, extra_env, args):
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra_env)
    proc = subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_args(out):
    args = ["se_vs_m", "--out", str(out)]
    for item in SMALL:
        args += ["--set", item]
    return args


def _run_cli(tmp_path, extra_env):
    out = tmp_path / "se.csv"
    _run(tmp_path, extra_env, ["-m", "xlmimo.cli", *_cli_args(out)])
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    return manifest["environment"]["blas_threads"], out.read_bytes()


@pytest.mark.parametrize("extra_env, threads", [
    ({}, "1"),                                # the package pins by itself
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),     # the operator's setting wins
])
def test_cli_blas_threads_and_bytes(tmp_path, extra_env, threads):
    seen, csv = _run_cli(tmp_path, extra_env)
    assert seen["OPENBLAS_NUM_THREADS"] == threads
    assert seen["OMP_NUM_THREADS"] == seen["MKL_NUM_THREADS"] == "1"
    assert hashlib.sha256(csv).hexdigest() == GOLDEN["se_vs_m"]


def _loaded_after_serial_run(tmp_path, packages):
    """The modules of `packages` that a serial CLI run has loaded."""
    script = ("import sys\n"
              "from xlmimo import cli\n"
              f"code = cli.main({_cli_args(tmp_path / 'se.csv')!r})\n"
              f"print(sorted(m for m in sys.modules for p in {packages!r}\n"
              "             if m == p or m.startswith(p + '.')))\n"
              "raise SystemExit(code)")
    return _run(tmp_path, {}, ["-c", script]).splitlines()[-1]


def test_cli_runs_without_scipy(tmp_path):
    # The package needs numpy alone; an import of scipy.linalg would make up
    # most of every launch's set-up time.
    assert _loaded_after_serial_run(tmp_path, ("scipy",)) == "[]"


def test_serial_run_loads_no_process_pool(tmp_path):
    # Only run.workers > 1 starts a pool; loading it would add to every
    # serial launch's set-up time.
    assert _loaded_after_serial_run(
        tmp_path, ("multiprocessing", "concurrent.futures.process")) == "[]"
