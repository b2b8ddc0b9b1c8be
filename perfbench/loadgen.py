"""The benchmark's own HTTP load generator and request mix.

It is kept apart from ``repro.fleet.loadtest`` on purpose: a change to
the program's load tester must not move the measurement.  One process,
one thread per keep-alive connection, never more connections than the
machine has cores.

* :func:`closed_loop` — each connection sends its next request as soon
  as the previous reply is read (callers that wait for replies).
* :func:`open_loop` — requests fall due on a fixed schedule whatever
  the server does (independent users); latency is timed from each
  request's due time, so a stall also charges the requests queued
  behind it, and the generator reports how late it sent.

Every reply is recorded: its status, latency and a digest of its body,
so repeated paths can be checked for byte-identical answers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from urllib.parse import quote

#: Share of each endpoint in the request mix.
ENDPOINT_SHARES = (
    ("rankings", 0.70), ("site", 0.20), ("distribution", 0.05), ("healthz", 0.05),
)
#: ``top=`` values a rankings request asks for.
TOPS = (10, 50, 100, 500)
#: Head of each reference-month list that site lookups draw from.
SITE_HEAD = 20
#: Zipf exponent over each endpoint's keys (rank k drawn with weight k^-s).
ZIPF_S = 1.0
#: Seeds the order of keys by popularity (and the tail shape's walk).
POPULARITY_SEED = 2022


@dataclass(frozen=True)
class Request:
    endpoint: str
    path: str


def request_keys(dataset, reference_month: str) -> dict[str, list[Request]]:
    """Every distinct request the mix can send, by endpoint."""
    rankings = [
        Request("rankings",
                f"/v1/rankings?country={country}&platform={platform.value}"
                f"&metric={metric.value}&month={month}&top={top}")
        for (country, platform, metric, month) in sorted(
            ((b.country, b.platform, b.metric, b.month)
             for b in dataset.breakdowns()),
            key=lambda k: (k[0], k[1].value, k[2].value, str(k[3])),
        )
        for top in TOPS
    ]
    heads: set[str] = set()
    month = next(m for m in dataset.months if str(m) == reference_month)
    platform0, metric0 = dataset.platforms[0], dataset.metrics[0]
    for country in dataset.countries:
        ranked = dataset.get_or_none(country, platform0, metric0, month)
        if ranked is not None:
            heads.update(ranked.top(SITE_HEAD).sites)
    sites = [
        Request("site",
                f"/v1/sites/{quote(site, safe='')}?platform={platform.value}"
                f"&metric={metric.value}&month={reference_month}")
        for site in sorted(heads)
        for platform in dataset.platforms
        for metric in dataset.metrics
    ]
    distributions = [
        Request("distribution",
                f"/v1/distributions?platform={platform.value}&metric={metric.value}")
        for platform in dataset.platforms
        for metric in dataset.metrics
    ]
    return {
        "rankings": rankings,
        "site": sites,
        "distribution": distributions,
        "healthz": [Request("healthz", "/v1/healthz")],
    }


def build_mix(keys: dict[str, list[Request]], n: int, seed: int | str,
              shape: str) -> list[Request]:
    """``n`` requests drawn from ``keys`` with the given key popularity.

    ``shape="zipf"``: within each endpoint the keys are put in a fixed
    order and key k is drawn with weight k^-ZIPF_S, so a small head
    repeats (payload-cache hits) while the tail keeps rendering.
    ``shape="tail"``: each endpoint walks a fixed shuffle of all its keys
    from a seeded starting point, so no key repeats until every other one
    has been asked for.
    """
    rng = random.Random(seed)
    names = [name for name, _ in ENDPOINT_SHARES]
    endpoint_cum = list(accumulate(share for _, share in ENDPOINT_SHARES))
    # Key popularity is a fixed property of the workload; the seed draws
    # the request stream from it.
    fixed = random.Random(POPULARITY_SEED)
    orders = {name: fixed.sample(keys[name], len(keys[name])) for name in names}
    if shape == "zipf":
        cums = {
            name: list(accumulate((k + 1) ** -ZIPF_S for k in range(len(order))))
            for name, order in orders.items()
        }
    elif shape != "tail":
        raise ValueError(f"unknown mix shape {shape!r}")
    cursor = {name: rng.randrange(len(orders[name])) for name in names}
    out: list[Request] = []
    for _ in range(n):
        name = names[min(bisect_left(endpoint_cum, rng.random() * endpoint_cum[-1]),
                         len(names) - 1)]
        order = orders[name]
        if shape == "zipf":
            cum = cums[name]
            index = min(bisect_left(cum, rng.random() * cum[-1]), len(order) - 1)
        else:
            index = cursor[name] % len(order)
            cursor[name] += 1
        out.append(order[index])
    return out


@dataclass
class Recorder:
    """Thread-safe tally of replies: latencies, failures, body digests."""

    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    mismatched: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, req: Request, status: int | None, body: bytes,
               latency: float, late: float | None = None) -> None:
        digest = hashlib.sha1(body).hexdigest() if status == 200 else ""
        with self.lock:
            self.attempted += 1
            if status != 200:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{req.path} -> {status}")
                return
            self.latencies.append(latency)
            if late is not None:
                self.lateness.append(late)
            # healthz carries worker-local counters; every other body
            # must be the same bytes whichever worker answered.
            if req.endpoint != "healthz":
                seen = self.digests.setdefault(req.path, digest)
                if seen != digest and len(self.mismatched) < 5:
                    self.mismatched.append(req.path)


class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after errors."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int | None, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._conn.request("GET", path)
            resp = self._conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return None, repr(exc).encode()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def connect(host: str, port: int, count: int, workers: int,
            attempts: int = 200) -> list[Connection]:
    """``count`` keep-alive connections spread evenly over ``workers``.

    Which fleet worker accepts a connection is a kernel race, and with
    two connections "both on one worker" happens in half the runs,
    which changes every serving number.  Each new connection asks
    ``/v1/metrics`` which worker answered and is kept only while that
    worker holds no more than its share.
    """
    per_worker: dict[int, int] = {}
    conns: list[Connection] = []
    share = -(-count // workers)
    for _ in range(attempts):
        if len(conns) == count:
            return conns
        conn = Connection(host, port)
        index = 0
        if workers > 1:
            status, body = conn.get("/v1/metrics")
            if status != 200:
                conn.close()
                continue
            index = json.loads(body)["fleet"]["worker"]
        if per_worker.get(index, 0) < share:
            per_worker[index] = per_worker.get(index, 0) + 1
            conns.append(conn)
        else:
            conn.close()
    for conn in conns:
        conn.close()
    raise OSError(f"could not spread {count} connections over {workers} workers")


def _drive(conns: list[Connection], body) -> None:
    """Run ``body(conn)`` on one thread per connection and wait for all."""
    threads = [threading.Thread(target=body, args=(c,)) for c in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_all(conns: list[Connection], requests: list[Request],
            recorder: Recorder) -> None:
    """Send every request exactly once, spread over the connections."""
    counter = iter(range(len(requests)))
    guard = threading.Lock()

    def body(conn: Connection) -> None:
        while True:
            with guard:
                i = next(counter, None)
            if i is None:
                return
            t0 = time.perf_counter()
            status, data = conn.get(requests[i].path)
            recorder.record(requests[i], status, data, time.perf_counter() - t0)

    _drive(conns, body)


def closed_loop(conns: list[Connection], requests: list[Request], *,
                seconds: float, recorder: Recorder) -> float:
    """Drive the connections back to back; returns the elapsed time.

    Requests are taken in order from ``requests`` (cycling), until
    ``seconds`` have passed; each connection finishes its last reply.
    """
    counter = iter(range(10**12))
    guard = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def body(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            with guard:
                i = next(counter)
            req = requests[i % len(requests)]
            t0 = time.perf_counter()
            status, data = conn.get(req.path)
            recorder.record(req, status, data, time.perf_counter() - t0)

    _drive(conns, body)
    return time.perf_counter() - start


def open_loop(conns: list[Connection], requests: list[Request], *,
              rate: float, recorder: Recorder) -> None:
    """Send ``requests`` at ``rate`` per second on a fixed schedule.

    Request i falls due at ``i / rate``; a connection takes the next
    due request when it is free, so when all are busy the schedule
    queues and the wait counts in the latency.
    """
    counter = iter(range(len(requests)))
    guard = threading.Lock()
    start = time.perf_counter() + 0.05

    def body(conn: Connection) -> None:
        while True:
            with guard:
                i = next(counter, None)
            if i is None:
                return
            due = start + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, data = conn.get(requests[i].path)
            recorder.record(requests[i], status, data, time.perf_counter() - due,
                            late=sent - due)

    _drive(conns, body)


def get_json(host: str, port: int, path: str, timeout: float = 30.0) -> dict:
    conn = Connection(host, port, timeout=timeout)
    try:
        status, body = conn.get(path)
    finally:
        conn.close()
    if status != 200:
        raise OSError(f"GET {path} -> {status}: {body[:200]!r}")
    return json.loads(body)
