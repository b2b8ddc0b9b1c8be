#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared.

Run from the checkout root::

    python3 perfbench/steady.py --runs 10 [--workload serve-zipf]

For each workload the command runs two sets of ``--runs`` runs (seeds
1..runs in both) with tracing off, then reports for every end-to-end
metric each set's median and quartiles, the spread (the distance
between the quartiles as a share of the median) and whether the sets
agree within the metric's bound from BENCHMARK.json: the second median
within the bound of the first in either direction, and both spreads
within the bound.  ``setup_s`` is held to its median alone: it is gated
on set-up work moving into it, with the largest bound, and each run's
figure includes one warm-up pass of the fleet, which swings with the
host (a 9-30 % spread over ten runs).  Exit status 1 if any metric
disagrees or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exit {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median), with exclusive-method quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def shift(first: float, second: float) -> float:
    """How far ``second`` lies from ``first``, as a share of ``first``."""
    return abs(second - first) / first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for index in (1, 2):
            runs = []
            for seed in range(1, args.runs + 1):
                result = one_run(workload, seed, SPEC["run_seconds"])
                runs.append(result)
                print(f"{workload} set {index} seed {seed}: "
                      f"{result['wall']:.1f} s, correct={result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}",
                      flush=True)
                ok &= bool(result["correct"])
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {shares}")
            ok = False
        print(f"\n{workload}: median [q1, q3] per set, spread, shift, verdict")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            moved = shift(stats[0][1], stats[1][1])
            spread_gated = name != "setup_s"
            verdict = ("SPREAD" if spread_gated and any(sp > bound for *_, sp in stats)
                       else "SHIFT" if moved > bound else "ok")
            ok &= verdict == "ok"
            cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}] {100 * sp:.1f}%"
                     for q1, med, q3, sp in stats]
            print(f"  {name:<22} bound {100 * bound:4.1f}%  "
                  + " | ".join(cells) + f"  shift {100 * moved:.1f}%  {verdict}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
