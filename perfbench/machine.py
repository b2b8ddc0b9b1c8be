"""What a run was measured on: source, config, machine, CPU score.

The CPU score is a fixed microbenchmark, in the spirit of normalising
field measurements by a device CPU score: comparing two records from
different machines starts by comparing their scores.  It is recorded
only; no metric is divided by it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from statistics import median

from common import BENCH, ROOT, SRC

#: Work in one CPU-score repetition; the score is repetitions per second.
_ITEMS = 200_000


def cpu_score(reps: int = 5) -> float:
    """Median rate of a fixed pure-Python + numpy workload (higher = faster)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    data = rng.random(_ITEMS)
    words = [f"site{i % 9973}.example" for i in range(_ITEMS // 4)]
    rates = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(_ITEMS):
            total += i * i % 7
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        np.sort(data)
        np.cumsum(np.bincount((data * 1000).astype(np.int64)))
        rates.append(1.0 / (time.perf_counter() - start))
    return median(rates)


def source_digest() -> str:
    """sha256 over every file under src/ and perfbench/, so non-git
    checkouts are identified and cached references tied to their code."""
    digest = hashlib.sha256()
    for root in (SRC, BENCH):
        for path in sorted(p for p in root.rglob("*") if p.is_file()
                           and "__pycache__" not in p.parts):
            digest.update(f"{root.name}/{path.relative_to(root)}".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(config_fingerprint: str) -> dict[str, object]:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "config_fingerprint": config_fingerprint,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_score": round(cpu_score(), 3),
    }
