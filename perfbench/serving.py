"""Start ``repro serve`` in its own process, wait until it answers, stop it.

``FleetSupervisor.start()`` returns right after forking, before the
workers have loaded the dataset, so readiness is established here by
polling: ``/v1/metrics`` on a fleet fans in every worker's snapshot
over the internal ports, and the fleet counts as ready once one such
request lists every worker and none unreachable.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, BenchError, child_env
from loadgen import Connection, get_json

_URL = re.compile(r"serving .* on http://([^:/\s]+):(\d+)")
_PIDS = re.compile(r"fleet: \d+ workers \(pids ([\d ]+)\)")


class Server:
    """One ``repro serve`` child process, stopped with ``stop()``."""

    def __init__(self, args: list[str], *, log: Path, workers: int) -> None:
        self.args = args
        self.log = log
        self.workers = workers
        self.host = ""
        self.port = 0
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 60.0) -> float:
        """Start the server; returns seconds until every worker answered."""
        self.log.parent.mkdir(parents=True, exist_ok=True)
        out = open(self.log, "w", encoding="utf-8")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(self.workers), *self.args],
                stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                start_new_session=True,
            )
        finally:
            out.close()
        deadline = start + timeout
        while not self.port:
            self._check_alive()
            match = _URL.search(self.log.read_text(encoding="utf-8"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if time.perf_counter() > deadline:
                raise BenchError(f"server printed no address within {timeout}s")
            time.sleep(0.005)
        while not self._all_workers_answer():
            self._check_alive()
            if time.perf_counter() > deadline:
                raise BenchError(f"workers not all answering within {timeout}s")
            time.sleep(0.005)
        return time.perf_counter() - start

    def _check_alive(self) -> None:
        if self.proc is not None and self.proc.poll() is not None:
            tail = self.log.read_text(encoding="utf-8")[-1500:]
            raise BenchError(f"server exited {self.proc.returncode}:\n{tail}")

    def _all_workers_answer(self) -> bool:
        return all_workers_answer(self.host, self.port, self.workers)

    def pids(self) -> list[int]:
        """The server process and, for a fleet, its workers (from the log)."""
        pids = [self.proc.pid]
        match = _PIDS.search(self.log.read_text(encoding="utf-8"))
        if match:
            pids += [int(pid) for pid in match.group(1).split()]
        elif self.workers > 1:
            raise BenchError("fleet printed no worker pids")
        return pids

    def cpu_seconds(self, pids: list[int]) -> float:
        """User + system CPU time the given server processes have used."""
        ticks = 0
        for pid in pids:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def metrics(self) -> dict:
        return get_json(self.host, self.port, "/v1/metrics")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for a drained exit; SIGKILL after ``timeout``."""
        proc = self.proc
        if proc is None:
            return 0
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return proc.returncode


def all_workers_answer(host: str, port: int, workers: int) -> bool:
    """True once one request reaches every worker: a fleet's
    ``/v1/metrics`` lists each worker and none unreachable."""
    conn = Connection(host, port, timeout=10.0)
    try:
        status, body = conn.get("/v1/healthz" if workers == 1 else "/v1/metrics")
    finally:
        conn.close()
    if status != 200:
        return False
    if workers == 1:
        return True
    fleet = json.loads(body).get("fleet", {})
    return len(fleet.get("workers", {})) == workers and not fleet.get("unreachable")
