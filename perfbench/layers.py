"""Per-layer probe: each layer's public call, timed in one fresh process.

Run by ``run.py --trace 1``; not meant to be started by hand, though it
can be::

    python3 perfbench/layers.py --world 2022 --root /tmp/probe \\
        --served <grown dataset> --mix-seed 1 --mix-shape zipf --out OUT

The benchmark's own ``repro.obs`` spans go around each call (so the
program's spans nest inside them) and the trace is written to
``OUT.jsonl``; the service replay's per-call timings go to ``OUT.json``.
Calls, in order: universe build, slice scoring, columnar write, open,
materialising every list, a cold and a warm pipeline run, a one-month
ingest, fleet start until every worker answers, and the serve schedule
replayed against an in-process ``QueryService`` (per-call median by
endpoint and payload-cache outcome).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from urllib.parse import parse_qsl, unquote, urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402
from loadgen import Request, build_mix, request_keys  # noqa: E402
from serving import all_workers_answer  # noqa: E402

INGEST_MONTH = "2022-03"
REPLAY_REQUESTS = 3000
CACHE_SIZE = 256  # ``repro serve --cache-size`` default


def _call(service, req: Request) -> None:
    parts = urlsplit(req.path)
    params = dict(parse_qsl(parts.query))
    if req.endpoint == "rankings":
        country = params.pop("country")
        service.rankings(country, **params)
    elif req.endpoint == "site":
        service.site(unquote(parts.path.rsplit("/", 1)[1]), **params)
    elif req.endpoint == "distribution":
        service.distribution(**params)
    else:
        service.healthz()


def replay(service, requests: list[Request]) -> dict[str, list[float]]:
    """Per-call milliseconds keyed ``<endpoint>_<hit|miss>``."""
    out: dict[str, list[float]] = {}
    cache = service.cache
    for req in requests:
        hits = cache.hits
        start = time.perf_counter()
        _call(service, req)
        elapsed = (time.perf_counter() - start) * 1000.0
        outcome = "hit" if cache.hits > hits else "miss"
        out.setdefault(f"{req.endpoint}_{outcome}", []).append(elapsed)
    return out


def wait_ready(sup, workers: int, timeout: float = 60.0) -> None:
    host, port = sup.url.rsplit("//", 1)[1].rsplit(":", 1)
    deadline = time.perf_counter() + timeout
    while not all_workers_answer(host, int(port), workers):
        if time.perf_counter() > deadline:
            raise RuntimeError("fleet workers did not all answer")
        time.sleep(0.005)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--served", required=True)
    parser.add_argument("--mix-seed", type=int, required=True)
    parser.add_argument("--mix-shape", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    require_source()

    import repro
    from repro.engine import GenerationEngine, SlicePlan
    from repro.export import load_dataset, save_dataset
    from repro.fleet import FleetSupervisor
    from repro.obs import Tracer, set_tracer
    from repro.pipeline import run_pipeline
    from repro.service import QueryService
    from repro.store import ingest_months
    from repro.synth import GeneratorConfig, TelemetryGenerator, build_universe

    root = Path(args.root)
    shutil.rmtree(root, ignore_errors=True)
    config = GeneratorConfig.small(seed=args.world)
    tracer = Tracer()
    set_tracer(tracer)
    result: dict[str, object] = {}
    with tracer.span("synth.universe_build"):
        build_universe(config.resolved_universe())
    engine = GenerationEngine(generator=TelemetryGenerator(config))
    plan = SlicePlan.from_grid(months=repro.STUDY_MONTHS)
    result["slices"] = len(plan)
    with tracer.span("engine.score", slices=len(plan)):
        dataset = engine.generate_plan(plan)
    with tracer.span("store.write"):
        save_dataset(dataset, root, format="columnar")
    with tracer.span("store.open"):
        mapped = load_dataset(root)
    with tracer.span("store.materialize"):
        for breakdown in mapped.breakdowns():
            mapped[breakdown].sites
    store = root / ".artifacts"
    with tracer.span("pipeline.run_cold"):
        cold = run_pipeline(mapped, store=store, config=config)
    with tracer.span("pipeline.run_warm"):
        warm = run_pipeline(load_dataset(root), store=store, config=config)
    result["cold_executed"] = cold.executed
    result["warm_executed"] = warm.executed
    with tracer.span("store.ingest"):
        ingest_months(root, [INGEST_MONTH], config=config)

    # Fork the fleet while this process still runs no threads.
    sup = FleetSupervisor(root, port=0, workers=2, small=True)
    with tracer.span("fleet.ready"):
        sup.start()
        try:
            wait_ready(sup, 2)
        except BaseException:
            sup.stop()
            raise
    sup.stop()

    served = Path(args.served)
    service = QueryService(load_dataset(served), store=served / ".artifacts",
                           config=config, cache=CACHE_SIZE)
    keys = request_keys(service.dataset, "2022-02")
    warmup = [r for r in keys["rankings"] if r.path.endswith("&top=10")]
    # The head of the closed-loop schedule the fleet was driven with.
    mix = [r for r in build_mix(keys, REPLAY_REQUESTS, f"{args.mix_seed}:closed",
                                args.mix_shape) if r.endpoint != "healthz"]
    # Ending with each endpoint's last 20 calls again guarantees hits
    # for every endpoint, even from a mix whose keys never repeat.
    again = [r for name in ("rankings", "site", "distribution")
             for r in [r for r in mix if r.endpoint == name][-20:]]
    with tracer.span("service.replay", requests=len(warmup) + len(mix)):
        replay(service, warmup)
        calls = replay(service, mix + again)
    result["service_ms"] = {k: median(v) for k, v in calls.items()}
    result["service_calls"] = {k: len(v) for k, v in calls.items()}
    set_tracer(repro.obs.NULL_TRACER)
    tracer.write(f"{args.out}.jsonl")
    Path(f"{args.out}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
