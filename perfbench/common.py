"""Shared plumbing: checkout paths, timed CLI steps, small statistics.

Every ``repro`` step the benchmark times runs in a fresh interpreter
(``python -m repro ...``) exactly as a user would start it, with
``src/`` of the checkout on ``PYTHONPATH``.  The child is reaped with
``os.wait4`` so its own CPU time and peak RSS (``ru_maxrss``) come back
with its wall time.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch space for runs and cached references; listed in .gitignore.
WORK = ROOT / ".perfbench-work"


class BenchError(RuntimeError):
    """A step of the benchmark could not run (not a wrong output)."""


def require_source() -> None:
    """Refuse to run anywhere but the root of a repository checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no src/repro package under {ROOT}; run from the checkout root"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass(frozen=True)
class Step:
    """One finished child process: wall and CPU time, peak RSS."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_python(args: list[str], *, log: Path, timeout: float = 170.0) -> Step:
    """Run ``python <args>`` to completion; raise on a non-zero exit."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -9 and wall >= timeout:
            raise BenchError(f"timed out after {timeout:.0f}s: {args}")
        out.seek(0)
        text = out.read()
    if proc.returncode != 0:
        tail = "\n".join(text.splitlines()[-15:])
        raise BenchError(f"exit {proc.returncode}: {' '.join(args)}\n{tail}")
    # ru_maxrss is in KiB on Linux.
    return Step(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0)


def run_repro(args: list[str], *, log: Path) -> Step:
    return run_python(["-m", "repro", *args], log=log)


def dir_bytes(path: Path, *, exclude: tuple[str, ...] = (".artifacts",)) -> int:
    """Total size of the regular files under ``path``, skipping ``exclude``."""
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = [d for d in dirnames if d not in exclude]
        for name in filenames:
            total += os.stat(os.path.join(dirpath, name)).st_size
    return total


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tail_percentile(values: list[float], *, beyond: int = 10,
                    cap: float = 0.99) -> tuple[float, float]:
    """(q, value): the highest quantile q <= cap with >= ``beyond`` samples above.

    With n samples that is the order statistic at index n - beyond - 1,
    so the value always has ``beyond`` measurements beyond it.
    """
    data = sorted(values)
    n = len(data)
    if n <= beyond:
        raise BenchError(f"{n} samples cannot give a tail with {beyond} beyond")
    index = min(n - beyond - 1, math.ceil(cap * n) - 1)
    return (index + 1) / n, data[index]


def read_artifact(run_dir: Path, task: str) -> object:
    with open(run_dir / "artifacts" / f"{task}.json", encoding="utf-8") as fh:
        return json.load(fh)["result"]
