#!/usr/bin/env python3
"""The repository benchmark: a user's whole path, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 3 --trace 0

Every run walks the path a user takes, each step a fresh ``python -m
repro`` process with CLI defaults (serial) on the ``--small`` grid
(45 countries x 2 platforms x 2 metrics x 6 months, 1.5K-site lists):

1. ``generate --format columnar --all-months`` into an empty directory;
2. ``report`` into an empty artifact store (cold), then three times more
   (warm; the median is kept);
3. ``ingest --months 2022-03`` and a ``report`` over the grown dataset;
4. ``serve --workers 2`` started three times until every worker answers;
   the last start gets a warm-up pass that touches every slice, then a
   closed loop at 2 connections (and, in a traced run, an open loop at a
   fixed rate).

The workloads differ in the inputs, one exercising the caches the other
bypasses (see ``WORKLOADS`` and README.md).  The last stdout line is the
JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics
(from a traced run) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK, BenchError, Step, dir_bytes, fresh_dir, require_source, run_python,
    run_repro, tail_percentile,
)

REFERENCE_MONTH = "2022-02"
INGEST_MONTH = "2022-03"
LIST_SIZE = 1_500            # GeneratorConfig.small().list_size
CONNS = min(2, os.cpu_count() or 1)  # client connections, never above nproc
SETUPS = 3                   # fleet starts per run; setup_s takes their median
WARM_REPEATS = 3             # warm reports per run; report_warm_s is the median
OPEN_RATE = 400.0            # open-loop requests/s, under a third of capacity
CLOSED_WINDOWS = 6           # the closed-loop rate is the median of these
BODY_SAMPLES = 24            # served bodies checked against repro.load
OVERHEAD_BLOCKS = 21         # alternating live/null span blocks timed
OVERHEAD_SPANS = 2_000       # spans per block
TASKS = (
    "clusters", "composition", "concentration", "endemic_categories",
    "endemicity", "geography", "has_app", "intersections", "labels",
    "overlap", "platforms", "popularity_mix", "prevalence", "sampling",
    "similarity", "south_patterns", "tags", "temporal", "top10",
)
SPAN_TOTALS = (
    "kernel.pairwise_wrbo", "kernel.bucket_intersections", "kernel.rank_matrix",
    "stats.fisher_batch", "stats.silhouette",
)
PROBE_SPANS = (
    "synth.universe_build", "engine.score", "store.write", "store.open",
    "store.materialize", "store.ingest", "pipeline.run_cold",
    "pipeline.run_warm", "fleet.ready",
)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; every workload walks the whole path."""

    name: str
    fresh_world: bool   # world seed from --seed, else the CLI default 2022
    pin_month: bool     # post-ingest report pinned to the reference month
    mix: str            # "tail" (no key repeats) or "zipf" (a hot head)


WORKLOADS = {
    # Caches bypassed: a new world per seed, so no run shares inputs with
    # another; the post-ingest report follows the newest month, so all 19
    # tasks re-run; no served key repeats before every key was asked.
    "cold-build": Workload("cold-build", fresh_world=True, pin_month=False,
                           mix="tail"),
    # Caches exercised: the default world; the post-ingest report pinned
    # to 2022-02 re-runs only the tasks the new month touches (delta
    # invalidation); a Zipf-headed mix hits the payload caches.
    "serve-zipf": Workload("serve-zipf", fresh_world=False, pin_month=True,
                           mix="zipf"),
}


def world_seed(workload: Workload, seed: int) -> int:
    return 10_000 + seed if workload.fresh_world else 2022


class Run:
    """One benchmark invocation: its directory, tracer and tallies."""

    def __init__(self, args, root: Path) -> None:
        from repro.obs import Tracer

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.world = world_seed(self.workload, args.seed)
        self.root = root
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: list[str] = []

    # -- timed CLI steps ---------------------------------------------------------

    def step(self, name: str, args: list[str], *, traced: bool = False) -> Step:
        """One ``python -m repro`` step; with ``traced`` its spans are adopted."""
        trace = self.root / "traces" / f"{name}.jsonl"
        extra = ["--trace", str(trace)] if traced else []
        log = self.root / "logs" / f"{name}.log"
        self.attempted += 1
        if self.tracer is None:
            return run_repro(args + extra, log=log)
        with self.tracer.span(f"cli.{name}") as span:
            step = run_repro(args + extra, log=log)
        if traced:
            self.adopt(trace, span, prefix=f"{name}:")
        return step

    def adopt(self, path: Path, parent, *, prefix: str) -> None:
        from repro.obs import read_trace
        from spans import prefixed

        self.tracer.adopt(prefixed(read_trace(path), prefix), parent=parent)

    def journey(self, base: Path, *, traced: bool) -> dict[str, object]:
        """generate -> cold report -> warm report -> ingest -> report."""
        import random

        import repro
        from checks import list_digests

        data = base / "data"
        small = ["--small"]
        out: dict[str, object] = {"data": data, "base": base}
        out["generate"] = self.step(
            "generate",
            ["generate", *small, "--seed", str(self.world), "--format",
             "columnar", "--all-months", "--out", str(data)], traced=traced)
        out["report_cold"] = self.step(
            "report_cold", ["report", "--data", str(data), "--out",
                            str(base / "report-cold"), *small], traced=traced)
        # The warm rerun is short, so an untraced run repeats it and keeps
        # the median; a traced run needs its spans once.
        warm = [
            self.step(f"report_warm{i}" if i else "report_warm",
                      ["report", "--data", str(data), "--out",
                       str(base / f"report-warm{i}"), *small], traced=traced)
            for i in range(1 if traced else WARM_REPEATS)
        ]
        out["report_warm"] = sorted(warm, key=lambda step: step.wall_s)[len(warm) // 2]
        ds = repro.load(data)
        picks = random.Random(self.args.seed).sample(list(ds.breakdowns()), 60)
        out["before"] = list_digests(ds, picks)
        # One ingest jitters by a second between runs, so an untraced run
        # also ingests a copy of the pre-ingest dataset and keeps the mean.
        def ingest(name: str, target: Path) -> Step:
            return self.step(name, ["ingest", "--data", str(target),
                                    "--months", INGEST_MONTH, *small])

        ingests = []
        if not traced:
            copy = base / "data-copy"
            shutil.copytree(data, copy, ignore=shutil.ignore_patterns(".artifacts"))
            ingests.append(ingest("ingest_copy", copy))
            shutil.rmtree(copy)
        out["ingest"] = ingest("ingest", data)
        ingests.append(out["ingest"])
        out["ingest_s"] = sum(step.wall_s for step in ingests) / len(ingests)
        pin = ["--month", REFERENCE_MONTH] if self.workload.pin_month else []
        out["report_delta"] = self.step(
            "report_delta", ["report", "--data", str(data), "--out",
                             str(base / "report-delta"), *small, *pin],
            traced=traced)
        out["store_bytes"] = dir_bytes(data)
        return out

    # -- serving ---------------------------------------------------------------------

    def serve(self, data: Path, *, setups: int, open_loop_too: bool) -> dict:
        """Fleet starts, a warm-up, the closed loop and, traced, the open loop."""
        import repro
        from loadgen import (
            Recorder, build_mix, closed_loop, connect, open_loop, request_keys,
            run_all,
        )
        from serving import Server

        ds = repro.load(data)
        keys = request_keys(ds, REFERENCE_MONTH)
        # Touch every slice once, and build the reference month's rank
        # indexes (site lookups) in both workers.
        warmup = ([r for r in keys["rankings"] if r.path.endswith("&top=10")]
                  + keys["site"][:64])
        shape, seed = self.workload.mix, self.args.seed
        closed_mix = build_mix(keys, 60_000, f"{seed}:closed", shape)
        open_mix = build_mix(keys, int(OPEN_RATE * self.args.seconds),
                             f"{seed}:open", shape)
        digests: dict[str, str] = {}
        warm_rec, closed_rec, open_rec = (Recorder(digests=digests) for _ in "123")
        # Each start is timed until every worker answers; the last start is
        # then warmed up and serves the loops.
        ready_s = []
        server = None
        for i in range(setups):
            if server is not None:
                self.check_exit(server.stop())
            server = Server(["--data", str(data), "--small"],
                            log=self.root / "logs" / f"serve-{i}.log", workers=2)
            try:
                ready_s.append(server.start())
            except BaseException:
                server.stop()
                raise
        conns = []
        try:
            conns = connect(server.host, server.port, CONNS, workers=2)
            start = time.perf_counter()
            run_all(conns, warmup, warm_rec)
            warmup_s = time.perf_counter() - start
            before = server.metrics()
            pids = server.pids()
            cpu_before = server.cpu_seconds(pids)
            rates, offset = [], 0
            for _ in range(CLOSED_WINDOWS):
                done = closed_rec.attempted - closed_rec.failed
                elapsed = closed_loop(conns, closed_mix[offset:],
                                      seconds=self.args.seconds / CLOSED_WINDOWS,
                                      recorder=closed_rec)
                offset = closed_rec.attempted
                rates.append((closed_rec.attempted - closed_rec.failed - done)
                             / elapsed)
            cpu_s = server.cpu_seconds(pids) - cpu_before
            if open_loop_too:
                open_loop(conns, open_mix, rate=OPEN_RATE, recorder=open_rec)
            after = server.metrics()
            bodies = self.sample_bodies(server, keys)
        finally:
            for conn in conns:
                conn.close()
            self.check_exit(server.stop())
        recs = [warm_rec, closed_rec, open_rec]
        for rec in recs:
            self.attempted += rec.attempted
            self.failed += rec.failed
            self.info += [f"request failed: {f}" for f in rec.failures]
        mismatched = [path for rec in recs for path in rec.mismatched]
        if mismatched:
            self.failures.append(f"repeated paths returned different bytes: "
                                 f"{mismatched[:5]}")
        served = closed_rec.attempted - closed_rec.failed
        out = {
            "setup_s": median(ready_s) + warmup_s,
            "serve_cpu_ms": 1000 * cpu_s / served,
            "rps": median(rates),
            "hit_ratio": (after["cache"]["hits"] - before["cache"]["hits"]) / max(
                1, after["cache"]["hits"] + after["cache"]["misses"]
                - before["cache"]["hits"] - before["cache"]["misses"]),
            "proxied_ratio": (after["counters"].get("fleet_proxied", 0)
                              - before["counters"].get("fleet_proxied", 0))
            / max(1, after["requests_total"] - before["requests_total"]),
            "bodies": bodies,
            "mix": (warmup, open_mix),
        }
        self.info.append(
            f"serving: {sum(map(len, keys.values()))} distinct keys, payload "
            f"cache {after['cache']['capacity']} entries fleet-wide; ready "
            f"{median(ready_s):.3f} s (median of {setups}), warm-up "
            f"{warmup_s:.3f} s; closed loop {out['rps']:.1f} req/s (median of "
            f"{CLOSED_WINDOWS} windows, {CONNS} connections), server CPU "
            f"{out['serve_cpu_ms']:.4f} ms/request"
        )
        if open_loop_too:
            latencies = open_rec.latencies
            q, p99 = tail_percentile(latencies)
            late = sorted(open_rec.lateness)
            out["p50_ms"] = 1000 * median(latencies)
            out["p99_ms"] = 1000 * p99
            self.info.append(
                f"open loop: {len(latencies)} replies at {OPEN_RATE:g}/s, p50 "
                f"{out['p50_ms']:.3f} ms, p{100 * q:.2f} {out['p99_ms']:.3f} "
                f"ms; sends late by median {1000 * median(late):.3f} ms, "
                f"max {1000 * late[-1]:.3f} ms"
            )
        return out

    def sample_bodies(self, server, keys) -> list[tuple[str, bytes]]:
        """A seeded sample of rankings and site bodies, for check_bodies."""
        import random

        from loadgen import Connection

        rng = random.Random(f"{self.args.seed}:bodies")
        picks = (rng.sample(keys["rankings"], BODY_SAMPLES * 2 // 3)
                 + rng.sample(keys["site"], BODY_SAMPLES // 3))
        bodies = []
        conn = Connection(server.host, server.port)
        try:
            for req in picks:
                status, body = conn.get(req.path)
                self.attempted += 1
                if status == 200:
                    bodies.append((req.path, body))
                else:
                    self.failed += 1
                    self.info.append(f"request failed: {req.path} -> {status}")
        finally:
            conn.close()
        return bodies

    def check_exit(self, code: int) -> None:
        if code != 0:
            self.failures.append(f"repro serve exited {code} after SIGTERM")

    # -- checks -------------------------------------------------------------------

    def reference(self, data: Path) -> tuple[Path, Path]:
        """A fresh generate of the ingested month and a cold report of the
        grown dataset, made for the fixed world once per source tree: the
        ``done`` marker holds the digest of ``src/`` and ``perfbench/``,
        so references are remade whenever the code that makes them changes."""
        from machine import source_digest

        ref = WORK / "refs" / f"world-{self.world}"
        digest = source_digest()
        done = ref / "done"
        if not done.exists() or done.read_text() != digest:
            tmp = fresh_dir(WORK / "refs" / f"tmp-{os.getpid()}")
            run_repro([
                "generate", "--small", "--seed", str(self.world), "--format",
                "columnar", "--months", INGEST_MONTH, "--out", str(tmp / "month"),
            ], log=tmp / "generate.log")
            run_repro([
                "report", "--data", str(data), "--out", str(tmp / "report"),
                "--small", "--month", REFERENCE_MONTH, "--store",
                str(tmp / "store"),
            ], log=tmp / "report.log")
            shutil.rmtree(tmp / "report" / "tables", ignore_errors=True)
            shutil.rmtree(tmp / "store", ignore_errors=True)
            (tmp / "done").write_text(digest)
            shutil.rmtree(ref, ignore_errors=True)
            tmp.rename(ref)
        return ref / "month", ref / "report"

    def _check(self, journey: dict, served: dict) -> None:
        import repro
        from checks import check_bodies, check_cold_report, check_ingest

        base = journey["base"]
        data = journey["data"]
        found = check_cold_report(
            data, base / "report-cold", base / "report-warm0",
            seed=self.args.seed, list_size=LIST_SIZE)
        if self.workload.pin_month:
            month, cold_ref = self.reference(data)
        else:
            month = cold_ref = None
        found += check_ingest(
            data, month, journey["before"], base / "report-delta", cold_ref,
            pinned=self.workload.pin_month, month=INGEST_MONTH)
        found += check_bodies(repro.load(data), served["bodies"])
        self.failures += found

    def check(self, journey: dict, served: dict) -> None:
        try:
            self._check(journey, served)
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed one
            import traceback

            self.failures.append("check crashed: " + "".join(
                traceback.format_exception_only(exc)).strip())


def end_to_end(journey: dict, served: dict) -> dict[str, tuple[float, str]]:
    gen, cold = journey["generate"], journey["report_cold"]
    return {
        "setup_s": (served["setup_s"], "s"),
        "generate_s": (gen.wall_s, "s"),
        "report_cold_s": (cold.wall_s, "s"),
        "report_warm_s": (journey["report_warm"].wall_s, "s"),
        "generate_peak_rss_mb": (gen.peak_rss_mb, "MB"),
        "report_peak_rss_mb": (cold.peak_rss_mb, "MB"),
        "store_bytes": (float(journey["store_bytes"]), "bytes"),
        "ingest_s": (journey["ingest_s"], "s"),
        "report_delta_s": (journey["report_delta"].wall_s, "s"),
        "serve_cpu_ms": (served["serve_cpu_ms"], "ms"),
    }


def traced_server(run: Run, data: Path, served: dict) -> float:
    """Median ``http.request`` span (ms) of a traced single-process server."""
    from loadgen import Recorder, connect, run_all
    from repro.obs import read_trace
    from serving import Server

    warmup, mix = served["mix"]
    trace = run.root / "traces" / "serve.jsonl"
    server = Server(["--data", str(data), "--small", "--trace", str(trace)],
                    log=run.root / "logs" / "serve-traced.log", workers=1)
    with run.tracer.span("cli.serve_traced") as span:
        server.start()
        try:
            rec = Recorder()
            conns = connect(server.host, server.port, 1, workers=1)
            run_all(conns, warmup, rec)
            mark = time.time()
            run_all(conns, mix, rec)
            conns[0].close()
        finally:
            code = server.stop()
    run.check_exit(code)
    run.attempted += rec.attempted
    run.failed += rec.failed
    spans = read_trace(trace)
    run.adopt(trace, span, prefix="serve:")
    return median([s["duration_ms"] for s in spans
                   if s["name"] == "http.request" and s["ts"] >= mark])


def per_layer(run: Run, journey: dict, served: dict, probe: dict,
              overhead_s: float, http_ms: float) -> dict[str, tuple[float, str]]:
    from spans import build_forest, format_summary, walk

    forest = build_forest(run.tracer.collector.snapshot())
    run.info.append("trace summary (self time nests spans by interval):\n"
                    + format_summary(forest))
    by_name: dict[str, list] = {}
    for node in walk(forest):
        by_name.setdefault(node.name, []).append(node)

    def one(name: str):
        nodes = by_name.get(name, [])
        if len(nodes) != 1:
            raise BenchError(f"expected one {name} span, found {len(nodes)}")
        return nodes[0]

    out: dict[str, tuple[float, str]] = {}
    for name in PROBE_SPANS:
        out[f"{name}_s"] = (one(name).seconds, "s")
    out["engine.slices_per_s"] = (probe["slices"] / out["engine.score_s"][0], "1/s")
    cold = one("cli.report_cold")
    tasks = {n.attr("task"): n for n in walk([cold]) if n.name == "pipeline.task"}
    for task in TASKS:
        out[f"pipeline.task.{task}_s"] = (tasks[task].self_seconds, "s")
    (pipeline_run,) = [n for n in cold.children if n.name == "pipeline.run"]
    out["pipeline.untraced_s"] = (pipeline_run.self_seconds, "s")
    for name in SPAN_TOTALS:
        total = sum(n.seconds for n in walk([cold]) if n.name == name)
        out[f"{name}_s"] = (total, "s")
    with open(journey["base"] / "report-delta" / "run.json", encoding="utf-8") as fh:
        executed = json.load(fh)["counts"]["executed"]
    out["pipeline.tasks_executed"] = (float(executed), "count")
    for endpoint in ("rankings", "site", "distribution"):
        for outcome in ("hit", "miss"):
            key = f"{endpoint}_{outcome}"
            out[f"service.{key}_ms"] = (probe["service_ms"][key], "ms")
    out["serve.rps"] = (served["rps"], "req/s")
    out["serve.p50_ms"] = (served["p50_ms"], "ms")
    out["serve.p99_ms"] = (served["p99_ms"], "ms")
    out["service.hit_ratio"] = (served["hit_ratio"], "ratio")
    out["fleet.proxied_ratio"] = (served["proxied_ratio"], "ratio")
    out["http.server_ms"] = (http_ms, "ms")
    out["obs.overhead_s"] = (overhead_s, "s")
    return out


def tracing_overhead(run: Run) -> float:
    """Seconds that tracing adds to the traced CLI steps, built from parts.

    Two whole runs, traced and untraced, differ by a second or more with
    host speed alone (README), far more than tracing costs, so the cost is
    timed in process instead: the steps' span count times the cost of one
    span under a live ``Tracer`` less that under ``NULL_TRACER`` (timed in
    alternating blocks, so drift in host speed cancels; median of blocks),
    plus the time to write the steps' spans as JSON Lines (median of 3).
    """
    from repro.obs import NULL_TRACER, Tracer, read_trace

    traces = run.root / "traces"
    live: list[float] = []
    null: list[float] = []
    for _ in range(OVERHEAD_BLOCKS):
        for tracer, costs in ((Tracer(), live), (NULL_TRACER, null)):
            start = time.perf_counter()
            for _ in range(OVERHEAD_SPANS):
                with tracer.span("perfbench.overhead", task="probe") as span:
                    span.set("status", "ok")
            costs.append((time.perf_counter() - start) / OVERHEAD_SPANS)
    spans = [s for path in sorted(traces.glob("*.jsonl")) for s in read_trace(path)]
    writer = Tracer()
    writer.collector.extend(spans)
    writes = []
    for _ in range(3):
        start = time.perf_counter()
        writer.write(traces / "rewrite.tmp")
        writes.append(time.perf_counter() - start)
    (traces / "rewrite.tmp").unlink()
    per_span = median(live) - median(null)
    run.info.append(f"tracing: {len(spans)} spans in the traced steps at "
                    f"{1e6 * per_span:.2f} us each, written in "
                    f"{1000 * median(writes):.1f} ms")
    return len(spans) * per_span + median(writes)


def execute(run: Run) -> dict[str, tuple[float, str]]:
    if not run.args.trace:
        t0 = time.perf_counter()
        journey = run.journey(run.root / "j", traced=False)
        t1 = time.perf_counter()
        served = run.serve(journey["data"], setups=SETUPS, open_loop_too=False)
        t2 = time.perf_counter()
        run.check(journey, served)
        t3 = time.perf_counter()
        run.info.append(f"phases: path {t1 - t0:.1f} s, serving {t2 - t1:.1f} s, "
                        f"checks {t3 - t2:.1f} s")
        run.info.append("cpu s: " + ", ".join(
            f"{name} {journey[name].cpu_s:.2f}" for name in
            ("generate", "report_cold", "report_warm", "ingest", "report_delta")))
        return end_to_end(journey, served)

    journey = run.journey(run.root / "t", traced=True)
    served = run.serve(journey["data"], setups=1, open_loop_too=True)
    http_ms = traced_server(run, journey["data"], served)
    overhead = tracing_overhead(run)
    out = run.root / "probe"
    with run.tracer.span("cli.layers") as span:
        run_python([str(Path(__file__).resolve().parent / "layers.py"),
                    "--world", str(run.world), "--root", str(run.root / "probe-data"),
                    "--served", str(journey["data"]), "--mix-seed",
                    str(run.args.seed), "--mix-shape", run.workload.mix,
                    "--out", str(out)], log=run.root / "logs" / "layers.log")
    run.attempted += 1
    run.adopt(Path(f"{out}.jsonl"), span, prefix="probe:")
    probe = json.loads(Path(f"{out}.json").read_text())
    run.check(journey, served)
    metrics = per_layer(run, journey, served, probe, overhead, http_ms)
    run.tracer.write(WORK / f"trace-{run.workload.name}.jsonl")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="closed-loop serving window; a traced run adds "
                             "an open loop as long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from machine import record
    from repro.synth import GeneratorConfig

    run = Run(args, fresh_dir(WORK / f"run-{os.getpid()}"))
    try:
        metrics = execute(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.root, ignore_errors=True)
    machine = record(GeneratorConfig.small(seed=run.world).fingerprint())
    for line in run.info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    print("record: " + json.dumps(machine, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(WORK / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "machine": machine,
                             **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
