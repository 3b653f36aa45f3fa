"""Start one child process, time it, and sample its resident memory."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

CHILD = Path(__file__).resolve().parent / "child.py"
SAMPLE_EVERY_S = 0.1
TIMEOUT_S = 150.0


def _tree_hwm_kb(pid: int) -> int:
    """Summed peak RSS (VmHWM) of ``pid`` and its live descendants."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="utf-8") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return total


def launch(mode_args, env, cwd, log_stem) -> dict:
    """Run ``child.py MODE_ARGS`` to completion.

    Returns wall time from launch to exit, exit code, the child's stdout,
    and peak RSS in MB: the larger of the sampled sum over the child and its
    workers and the kernel's own peak for the child (``wait4``).
    """
    out_path, err_path = f"{log_stem}.out", f"{log_stem}.err"
    peak = [0]
    stop = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        # A process group of its own, so a kill reaches the workers too.
        proc = subprocess.Popen([sys.executable, str(CHILD), *mode_args],
                                env=env, cwd=cwd, stdout=out, stderr=err,
                                start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        def sample():
            while not stop.is_set():
                peak[0] = max(peak[0], _tree_hwm_kb(proc.pid))
                if time.monotonic() - started > TIMEOUT_S:
                    kill_group()
                stop.wait(SAMPLE_EVERY_S)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            proc.wait()
            raise
        finally:
            ended = time.monotonic()
            stop.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"started": started, "wall_s": ended - started, "rc": proc.returncode,
            "stdout": stdout, "stderr_tail": stderr[-2000:],
            "peak_rss_mb": max(peak[0], usage.ru_maxrss) / 1024.0}
