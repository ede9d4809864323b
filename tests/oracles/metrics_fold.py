"""The hand-written fleet metrics fold, kept as a reference.

This is ``repro.service.server._aggregate_metrics`` as it was before
the fold became structural: every block and counter is named by hand.
The production fold now derives the same totals from the snapshots'
own shape; ``tests/test_metrics_fold.py`` compares the two. The
function below is the original code, unchanged.
"""

from __future__ import annotations

from typing import Any

from repro.util import telemetry


def _aggregate_metrics(records: list[dict]) -> dict:
    """Fold per-worker ``/metrics`` snapshots into fleet totals.

    Counters sum; ``max_ms`` takes the max; means are recomputed from
    the summed totals. Disk-tier ``files``/``bytes`` describe the one
    shared directory, so they are taken from the freshest snapshot
    rather than summed.
    """
    endpoints: dict[str, dict] = {}
    cache = {"capacity": 0, "entries": 0, "hits": 0, "misses": 0,
             "evictions": 0, "stages": {},
             "functions": {"checked": 0, "reused": 0},
             "compile_units": {"emitted": 0, "reused": 0},
             "resolved_cache": {"entries": 0, "reused": 0},
             "singleflight": {"leaders": 0, "followers": 0,
                              "failures": 0, "reelections": 0,
                              "inflight": 0}}
    resilience: dict[str, Any] = {"deadline_exceeded": 0, "shed": 0,
                                  "slow": 0, "faults": None}
    sessions: dict[str, Any] = {
        "open": 0, "opened": 0, "closed": 0, "evicted_ttl": 0,
        "evicted_lru": 0, "edits": 0, "stale_rejected": 0,
        "replayed": 0, "hydrated": 0, "synced": 0, "not_found": 0,
        "segments": {"reparsed": 0, "reused": 0, "relocated": 0}}
    dse: dict[str, int] = {"requests": 0, "coalesced": 0,
                           "async_jobs": 0,
                           "frontier_requests": 0, "stream_requests": 0,
                           "frontier_updates": 0, "points_evaluated": 0}
    cas: dict[str, int] = {"served": 0}
    jobs: dict[str, int] = {"submitted": 0, "coalesced": 0,
                            "completed": 0, "failed": 0}
    disk: dict | None = None
    remote: dict | None = None
    freshest = -1.0
    for record in records:
        metrics = record.get("metrics", {})
        # Session counters sum across workers; a hydrated session is
        # "open" on every worker that holds a copy, so the fleet-wide
        # "open" is an upper bound on distinct sessions.
        row = metrics.get("sessions", {})
        for key, value in row.items():
            if key == "segments":
                for sub, count in value.items():
                    sessions["segments"][sub] = \
                        sessions["segments"].get(sub, 0) + count
            else:
                sessions[key] = sessions.get(key, 0) + value
        row = metrics.get("dse", {})
        for key in dse:
            dse[key] += row.get(key, 0)
        row = metrics.get("cas", {})
        for key in cas:
            cas[key] += row.get(key, 0)
        row = metrics.get("jobs", {})
        for key in jobs:
            jobs[key] += row.get(key, 0)
        row = metrics.get("resilience", {})
        for key in ("deadline_exceeded", "shed", "slow"):
            resilience[key] += row.get(key, 0)
        faults = row.get("faults")
        if faults:
            merged = resilience["faults"] or {"plan": faults.get("plan"),
                                              "sites": {}}
            for site, counters in faults.get("sites", {}).items():
                into = merged["sites"].setdefault(
                    site, {"calls": 0, "fired": 0})
                into["calls"] += counters.get("calls", 0)
                into["fired"] += counters.get("fired", 0)
            resilience["faults"] = merged
        for path, row in metrics.get("endpoints", {}).items():
            into = endpoints.setdefault(path, {
                "requests": 0, "errors": 0, "total_ms": 0.0,
                "max_ms": 0.0, "buckets": {}})
            into["requests"] += row.get("requests", 0)
            into["errors"] += row.get("errors", 0)
            into["total_ms"] += row.get("total_ms", 0.0)
            into["max_ms"] = max(into["max_ms"], row.get("max_ms", 0.0))
            # Histogram buckets share fixed bounds fleet-wide, so the
            # fold is plain addition — which is the whole point: the
            # aggregate's percentiles below are *true* percentiles of
            # the union of requests, not an average of averages.
            into["buckets"] = telemetry.merge_bucket_counts(
                (into["buckets"], row.get("buckets", {})))
        row = metrics.get("cache", {})
        for key in ("capacity", "entries", "hits", "misses", "evictions"):
            cache[key] += row.get(key, 0)
        for stage, counters in row.get("stages", {}).items():
            into = cache["stages"].setdefault(
                stage, {"hits": 0, "misses": 0, "coalesced": 0})
            into["hits"] += counters.get("hits", 0)
            into["misses"] += counters.get("misses", 0)
            into["coalesced"] += counters.get("coalesced", 0)
        # Function-grained sub-artifact counters (per-worker sums).
        for block in ("functions", "compile_units", "resolved_cache",
                      "singleflight"):
            for key, value in row.get(block, {}).items():
                cache[block][key] = cache[block].get(key, 0) + value
        if "remote" in row:
            if remote is None:
                remote = {key: 0 for key in
                          ("hits", "misses", "errors", "corrupt")}
            for key in ("hits", "misses", "errors", "corrupt"):
                remote[key] += row["remote"].get(key, 0)
            remote["peers"] = row["remote"].get("peers")
        if "disk" in row:
            if disk is None:
                disk = {key: 0 for key in
                        ("hits", "misses", "writes", "write_errors",
                         "evictions", "corrupt", "unpicklable")}
            for key in ("hits", "misses", "writes", "write_errors",
                        "evictions", "corrupt", "unpicklable"):
                disk[key] += row["disk"].get(key, 0)
            updated = float(record.get("updated", 0.0))
            if updated > freshest:
                freshest = updated
                for key in ("root", "max_bytes", "files", "bytes"):
                    disk[key] = row["disk"].get(key)
    for path, row in endpoints.items():
        requests = row["requests"]
        row["mean_ms"] = round(row["total_ms"] / requests, 3) \
            if requests else 0.0
        row["total_ms"] = round(row["total_ms"], 3)
        row["max_ms"] = round(row["max_ms"], 3)
        for quantile, key in ((0.50, "p50_ms"), (0.95, "p95_ms"),
                              (0.99, "p99_ms")):
            row[key] = telemetry.quantile_from_buckets(row["buckets"],
                                                       quantile)
    total = cache["hits"] + cache["misses"]
    cache["hit_rate"] = round(cache["hits"] / total, 4) if total else 0.0
    cache["stages"] = dict(sorted(cache["stages"].items()))
    if disk is not None:
        cache["disk"] = disk
    if remote is not None:
        cache["remote"] = remote
    return {"endpoints": dict(sorted(endpoints.items())),
            "resilience": resilience, "cache": cache,
            "sessions": sessions, "dse": dse, "cas": cas,
            "jobs": jobs}
