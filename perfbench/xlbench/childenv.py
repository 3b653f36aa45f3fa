"""The fixed environment every xlmimo child process runs in.

BLAS threading variables are removed, so OpenBLAS runs at its library
default: a later change that pins threads inside the program then shows up
as a gain, and a setting in the operator's shell cannot hide a regression.
Python start-up variables are removed for the same reason; ``PYTHONPATH``
points at the checkout's ``src/`` because the package is not installed.
"""

import os
import subprocess

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")
OTHER_VARS = ("XLMIMO_OUT_DIR",)


def child_env(base: dict, root) -> tuple:
    """Return (environment for the child, {removed name: operator value})."""
    removed = {k: v for k, v in base.items()
               if k in BLAS_VARS or k in OTHER_VARS or k.startswith("PYTHON")}
    env = {k: v for k, v in base.items() if k not in removed}
    env["PYTHONPATH"] = os.path.join(str(root), "src")
    return env, removed


def host_block(root, removed: dict) -> dict:
    """Host facts recorded beside every result: CPUs, revision, removed vars."""
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": revision or "unknown (not a git checkout)",
        "blas_vars_unset": list(BLAS_VARS),
        "removed_from_child_env": removed,
    }
