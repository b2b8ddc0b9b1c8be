"""Output checks made apart from the program.

Each check recomputes a published number from its definition (numpy,
``scipy.stats``) over lists read back through ``repro.load``, or tests a
property the method must have, or compares against an independent
from-scratch run of the program.  None compares against a stored copy
of earlier output.  Every function returns a list of failure messages;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import filecmp
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy import stats

from common import read_artifact

#: Relative tolerance for floats recomputed in another summation order.
RTOL = 1e-9
ALPHA = 0.05
EFFECTIVE_N = 100_000
TOP_N = 10_000


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _weights(dist, k: int) -> np.ndarray:
    """Traffic share of each rank 1..k: differences of the cumulative curve."""
    cum = dist.cumulative_shares(np.arange(1, k + 1, dtype=float))
    return np.maximum(np.diff(np.concatenate(([0.0], cum))), 0.0)


def weighted_rbo(a: tuple[str, ...], b: tuple[str, ...], weights: np.ndarray) -> float:
    """Σ_d w_d·|A_{1:d} ∩ B_{1:d}|/d / Σ_d w_d, walking both prefixes."""
    k = min(len(a), len(b), len(weights))
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    overlap = 0
    agreement = np.empty(k)
    for d in range(k):
        x, y = a[d], b[d]
        seen_a.add(x)
        seen_b.add(y)
        overlap += (x in seen_b) + (y in seen_a) - (x == y)
        agreement[d] = overlap / (d + 1)
    w = weights[:k]
    return float(np.dot(w, agreement) / w.sum())


def check_cold_report(data: Path, cold: Path, warm: Path, *, seed: int,
                      list_size: int) -> list[str]:
    """Similarity, overlap, platforms and structural checks on one report."""
    import repro

    failures: list[str] = []
    rng = random.Random(seed)
    ds = repro.load(data, as_of=1)
    windows, android = repro.Platform.WINDOWS, repro.Platform.ANDROID
    loads, time_ = repro.Metric.PAGE_LOADS, repro.Metric.TIME_ON_PAGE
    month = ds.months[-1]

    # -- every list: duplicate-free and no longer than list_size ---------------
    for b in ds.breakdowns():
        sites = ds[b].sites
        if len(set(sites)) != len(sites) or not 0 < len(sites) <= list_size:
            failures.append(f"list {b} has {len(sites)} entries, "
                            f"{len(set(sites))} distinct (limit {list_size})")
            break

    # -- warm rerun: byte-equal artifacts --------------------------------------
    names = sorted(p.name for p in (cold / "artifacts").iterdir())
    if len(names) != 19:
        failures.append(f"cold report wrote {len(names)} artifacts, expected 19")
    _, mismatch, errors = filecmp.cmpfiles(
        cold / "artifacts", warm / "artifacts", names, shallow=False
    )
    if mismatch or errors:
        failures.append(f"warm artifacts differ from cold: {mismatch + errors}")

    # -- similarity: symmetric, unit diagonal, wRBO from its definition --------
    sim = read_artifact(cold, "similarity")
    countries = sim["countries"]
    values = np.asarray(sim["values"], dtype=float)
    if not np.array_equal(values, values.T):
        failures.append("similarity matrix is not symmetric")
    if not np.allclose(np.diag(values), 1.0, rtol=0, atol=1e-12):
        failures.append("similarity diagonal is not 1")
    dist = ds.distribution(windows, loads)
    lists = {c: ds.get(c, windows, loads, month).sites for c in countries}
    weights = _weights(dist, min(TOP_N, max(len(s) for s in lists.values())))
    for _ in range(6):
        i, j = rng.sample(range(len(countries)), 2)
        want = weighted_rbo(lists[countries[i]], lists[countries[j]], weights)
        if not _close(want, values[i, j]):
            failures.append(f"wRBO {countries[i]}-{countries[j]}: artifact "
                            f"{values[i, j]!r}, definition {want!r}")

    # -- clusters partition every country --------------------------------------
    clusters = read_artifact(cold, "clusters")["clusters"]
    members = [c for cluster in clusters for c in cluster["members"]]
    if sorted(members) != sorted(countries) or len(countries) != 45:
        failures.append(f"clusters cover {len(members)} slots over "
                        f"{len(set(members))} of {len(countries)} countries")

    # -- loads vs time: intersection share and Spearman ------------------------
    overlap = {p["platform"]: p for p in read_artifact(cold, "overlap")["platforms"]}
    for platform in ds.platforms:
        block = overlap.get(platform.value)
        if block is None:
            failures.append(f"overlap artifact lacks {platform.value}")
            continue
        rhos = []
        sample = set(rng.sample(countries, 6))
        for country in countries:
            a = ds.get(country, platform, loads, month).sites[:TOP_N]
            b = ds.get(country, platform, time_, month).sites[:TOP_N]
            rank_b = {s: r for r, s in enumerate(b, 1)}
            pairs = [(r, rank_b[s]) for r, s in enumerate(a, 1) if s in rank_b]
            share = len(pairs) / min(TOP_N, len(a), len(b))
            rhos.append(stats.spearmanr(*zip(*pairs)).statistic)
            got = block["per_country_intersection"].get(country)
            if country in sample and not _close(share, got):
                failures.append(f"intersection {platform.value}/{country}: "
                                f"artifact {got!r}, recomputed {share!r}")
        q25, q50, q75 = np.percentile(rhos, [25, 50, 75])
        spear = block["spearman"]
        for name, want in (("q25", q25), ("median", q50), ("q75", q75)):
            if not math.isclose(spear[name], want, rel_tol=1e-7):
                failures.append(f"spearman {platform.value} {name}: artifact "
                                f"{spear[name]!r}, scipy {want!r}")

    failures += _check_platforms(ds, cold, rng, month)
    return failures


def _check_platforms(ds, cold: Path, rng: random.Random, month) -> list[str]:
    """Fisher-exact + Bonferroni for sampled categories, across all countries."""
    import repro

    failures: list[str] = []
    labels = read_artifact(cold, "labels")
    artifact = {m["metric"]: m for m in read_artifact(cold, "platforms")["metrics"]}
    windows, android = repro.Platform.WINDOWS, repro.Platform.ANDROID
    for metric in ds.metrics:
        per_country = {}
        for country in ds.countries:
            shares = []
            for platform in (android, windows):
                sites = ds.get(country, platform, metric, month).sites[:TOP_N]
                w = _weights(ds.distribution(platform, metric), len(sites))
                volume: dict[str, float] = {}
                for site, weight in zip(sites, w):
                    category = labels.get(site, "Unknown")
                    volume[category] = volume.get(category, 0.0) + float(weight)
                total = sum(volume.values())
                shares.append({c: v / total for c, v in volume.items()})
            per_country[country] = shares
        all_categories = sorted({c for a, w in per_country.values() for c in a | w})
        published = {d["category"]: d for d in artifact[metric.value]["differences"]}
        majority = len(per_country) // 2 + 1
        shown = sorted(published)
        hidden = [c for c in all_categories if c not in published]
        sample = (rng.sample(shown, min(3, len(shown)))
                  + rng.sample(hidden, min(2, len(hidden))))
        for category in sample:
            sure = maybe = 0
            scores = []
            for share_a, share_w in per_country.values():
                m = len(set(share_a) | set(share_w))
                if category not in share_a and category not in share_w:
                    continue
                a_share = share_a.get(category, 0.0)
                w_share = share_w.get(category, 0.0)
                a = math.floor(a_share * EFFECTIVE_N + 0.5)
                b = math.floor(w_share * EFFECTIVE_N + 0.5)
                p = stats.fisher_exact(
                    [[a, EFFECTIVE_N - a], [b, EFFECTIVE_N - b]]
                ).pvalue
                threshold = ALPHA / m
                if abs(p - threshold) <= 1e-9 * threshold:
                    maybe += 1
                elif p <= threshold:
                    sure += 1
                    larger = max(a_share, w_share)
                    scores.append((a_share - w_share) / larger if larger else 0.0)
            row = published.get(category)
            if row is None:
                if sure >= majority:
                    failures.append(f"platforms/{metric.value}: {category} is "
                                    f"significant in {sure} countries but missing")
                continue
            if not sure <= row["n_significant"] <= sure + maybe:
                failures.append(f"platforms/{metric.value}/{category}: "
                                f"n_significant {row['n_significant']}, "
                                f"scipy {sure} (+{maybe} borderline)")
            elif not maybe and not _close(row["median_score"],
                                          float(np.median(scores))):
                failures.append(f"platforms/{metric.value}/{category}: median "
                                f"score {row['median_score']!r} vs "
                                f"{float(np.median(scores))!r}")
    return failures


def list_digests(ds, breakdowns) -> dict[str, str]:
    import hashlib

    return {
        str(b): hashlib.sha1("\n".join(ds[b].sites).encode()).hexdigest()
        for b in breakdowns
    }


def check_ingest(data: Path, reference_month_data: Path | None,
                 before: dict[str, str], delta: Path, cold_reference: Path | None, *,
                 pinned: bool, month: str) -> list[str]:
    """The ingested month, the archived version and the delta report."""
    import repro

    failures: list[str] = []
    grown = repro.load(data)
    new = [b for b in grown.breakdowns() if str(b.month) == month]
    if len(new) != 45 * 2 * 2:
        failures.append(f"ingest added {len(new)} slices, expected 180")
    if reference_month_data is not None:
        fresh = repro.load(reference_month_data)
        if sorted(map(str, new)) != sorted(map(str, fresh.breakdowns())):
            failures.append(f"ingested slices differ from a fresh generate of {month}")
        for b in new:
            if grown[b].sites != fresh[b].sites:
                failures.append(f"ingested {b} differs from a fresh generate")
                break
    old = repro.load(data, as_of=1)
    if [str(m) for m in old.months] == [str(m) for m in grown.months]:
        failures.append("as_of=1 sees the ingested month")
    keys = [b for b in old.breakdowns() if str(b) in before]
    if list_digests(old, keys) != before:
        failures.append("as_of=1 no longer loads the pre-ingest lists")

    with open(delta / "run.json", encoding="utf-8") as fh:
        executed = json.load(fh)["counts"]["executed"]
    if not 0 < executed <= 19 or (pinned and executed == 19):
        failures.append(f"post-ingest report executed {executed} of 19 tasks")
    if cold_reference is not None:
        names = sorted(p.name for p in (cold_reference / "artifacts").iterdir())
        _, mismatch, errors = filecmp.cmpfiles(
            cold_reference / "artifacts", delta / "artifacts", names,
            shallow=False,
        )
        if len(names) != 19 or mismatch or errors:
            failures.append("delta report differs from a cold report of the "
                            f"grown dataset: {mismatch + errors}")
    return failures


def check_bodies(ds, samples: list[tuple[str, bytes]]) -> list[str]:
    """Served rankings/site bodies against lists read through repro.load."""
    import repro

    failures: list[str] = []
    for path, body in samples:
        doc = json.loads(body)
        platform = repro.Platform(doc["platform"])
        metric = repro.Metric(doc["metric"])
        month = repro.Month.parse(doc["month"])
        if path.startswith("/v1/rankings"):
            ranked = ds.get(doc["country"], platform, metric, month).sites
            top = int(path.rsplit("top=", 1)[1])
            if doc["sites"] != list(ranked[:top]) or doc["total_sites"] != len(ranked):
                failures.append(f"{path}: body disagrees with the stored list")
        else:
            ranks = {}
            for country in ds.countries:
                sites = ds.get(country, platform, metric, month).sites
                ranks[country] = sites.index(doc["site"]) + 1 if doc["site"] in sites else None
            ranked = {c: r for c, r in ranks.items() if r is not None}
            best = min(ranked.items(), key=lambda kv: kv[1])
            if (doc["ranks"] != ranks or doc["countries_ranked"] != len(ranked)
                    or doc["best"]["rank"] != best[1]):
                failures.append(f"{path}: body disagrees with the stored lists")
    return failures
