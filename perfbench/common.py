"""Shared helpers: statistics, program processes and the result record.

Every program process the benchmark starts runs from the checkout root
with ``PYTHONPATH=src``, the same way a user runs ``python -m repro``.
Scratch files live under ``.bench_tmp/`` in the checkout, so a run reads
and writes nothing outside it.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BOOT = BENCH_DIR / "boot.py"
TMP = ROOT / ".bench_tmp"


def check_checkout() -> Optional[str]:
    """Why this directory cannot be benchmarked, or ``None`` when it can."""
    for need in ("src/repro/__init__.py", "results"):
        if not (ROOT / need).exists():
            return f"{need} is missing: run from the root of a repro checkout"
    return None


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One string-hash layout for every run, so set and dict probe costs
    # do not vary between runs.  Outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_STORE_DIR", None)
    return env


def program_cmd(module_argv: Sequence[str], spans_dir: Optional[pathlib.Path]) -> List[str]:
    """argv that runs ``python -m <module_argv>``, traced when ``spans_dir``."""
    if spans_dir is None:
        return [sys.executable, "-m", *module_argv]
    return [sys.executable, str(BOOT), "--spans-dir", str(spans_dir), "--", *module_argv]


def fresh_dir(name: str) -> pathlib.Path:
    path = TMP / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def wait_rusage(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Reap ``proc`` with ``wait4``: ``(exit code, peak RSS MB)``.

    The peak RSS covers the process and every descendant it reaped, so
    forked workers count.  A process still running after ``timeout``
    seconds is killed.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_program(argv: List[str], timeout: float = 150.0) -> Tuple[int, float, float, str]:
    """Run one program process to completion.

    Returns ``(exit code, wall seconds, peak RSS MB, stderr tail)``.
    """
    with tempfile.TemporaryFile(dir=TMP) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(),
            stdout=subprocess.DEVNULL, stderr=err,
        )
        code, rss = wait_rusage(proc, timeout)
        wall = time.perf_counter() - started
        err.seek(0)
        tail = err.read().decode("utf-8", "replace")[-2000:]
    return code, wall, rss, tail


def interpreter_import_s(modules: Sequence[str], repeats: int = 5) -> float:
    """Median seconds for a fresh interpreter to import ``modules``."""
    code = "; ".join(f"import {m}" for m in modules)
    times = []
    for _ in range(repeats):
        exit_code, wall, _, err = run_program([sys.executable, "-c", code], timeout=60)
        if exit_code != 0:
            raise RuntimeError(f"importing {modules} failed: {err}")
        times.append(wall)
    return statistics.median(times)


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def prom_totals(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> value per metric name, labels summed."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            key = name.split("{")[0]
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


#: The percentile at which ``op.p10_ms`` reports an operation's time.
#: On a shared host each vCPU flips between a fast and a roughly 40%
#: slower state many times a second, and the share of slow time drifts
#: over minutes.  That drift moves the median pass of a 30 s run by up to
#: a fifth between runs; the fast tail moves about half as much.  The
#: interference only ever adds time, so the fast tail is also the closer
#: estimate of what the program itself costs.
OP_PERCENTILE = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric entry.  A latency that failed requests pushed past every
    answer is infinite; it reads as the largest float, so the record stays
    strict JSON."""
    value = float(value)
    if not math.isfinite(value):
        value = sys.float_info.max
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict]) -> None:
    """Print the result record as the last line of stdout."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True, allow_nan=False), flush=True)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
