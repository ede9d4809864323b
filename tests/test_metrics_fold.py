"""Differential tests: the structural fleet fold against the hand fold.

``repro.service.fleet._aggregate_metrics`` folds per-worker
``/metrics`` snapshots by their shape: numbers sum, ``max_ms`` takes
the max, a short table of shared-state keys comes from the freshest
snapshot, and ratios are recomputed. ``tests/oracles/metrics_fold.py``
keeps the fold it replaced, which named every block and counter by
hand. On every key path the oracle emits the two must agree; the
structural fold may add only the job counters the oracle dropped
(``jobs.owned`` and ``jobs.states``).

Random fleets draw snapshots shaped like the ones workers publish,
with and without the optional ``disk``, ``remote`` and ``faults``
blocks, and with endpoint rows from before latency histograms (no
``buckets``). The disk root, byte cap, peer list and fault plan are
fleet-wide settings, so they are drawn once per fleet.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.service.fleet import WorkerBoard, _aggregate_metrics
from repro.service.server import EndpointMetrics

from oracles.metrics_fold import _aggregate_metrics as oracle_fold

#: The keys the structural fold emits and the hand fold dropped.
ADDED = {("jobs", "owned"), ("jobs", "states")}

ROUTES = ("(unknown)", "/check", "/dse", "/estimate", "/jobs",
          "/metrics", "/session")
STAGES = ("check", "check_payload", "estimate", "parse", "resolve")
SITES = ("disk.write", "pipeline.stage", "server.handle",
         "singleflight.leader")
SESSION_COUNTERS = ("open", "opened", "closed", "evicted_ttl",
                    "evicted_lru", "edits", "stale_rejected", "replayed",
                    "hydrated", "synced", "not_found")
DSE_COUNTERS = ("requests", "coalesced", "async_jobs",
                "frontier_requests", "stream_requests",
                "frontier_updates", "points_evaluated")

COUNT = st.integers(0, 10 ** 6)


def counters(*keys: str):
    return st.fixed_dictionaries({key: COUNT for key in keys})


@st.composite
def endpoint_rows(draw):
    metric = EndpointMetrics()
    for elapsed_ms in draw(st.lists(st.floats(0.001, 5000.0),
                                    max_size=12)):
        metric.record(elapsed_ms, error=draw(st.booleans()))
    row = metric.as_dict()
    if draw(st.booleans()):
        # Published before the histogram existed.
        row = {key: row[key]
               for key in ("requests", "errors", "total_ms", "max_ms")}
    return row


@st.composite
def snapshots(draw, fleet: dict) -> dict:
    hits, misses = draw(COUNT), draw(COUNT)
    cache = {
        "capacity": draw(COUNT), "entries": draw(COUNT),
        "hits": hits, "misses": misses,
        "hit_rate": round(hits / (hits + misses), 4)
        if hits + misses else 0.0,
        "evictions": draw(COUNT),
        "stages": draw(st.dictionaries(
            st.sampled_from(STAGES), counters("hits", "misses",
                                              "coalesced"))),
    }
    if draw(st.booleans()):
        cache["disk"] = {
            "root": fleet["root"], "max_bytes": fleet["max_bytes"],
            "files": draw(COUNT), "bytes": draw(COUNT),
            **draw(counters("hits", "misses", "writes", "write_errors",
                            "evictions", "corrupt", "unpicklable"))}
    if draw(st.booleans()):
        cache["remote"] = {
            "peers": fleet["peers"],
            **draw(counters("hits", "misses", "errors", "corrupt"))}
    cache["functions"] = draw(counters("checked", "reused"))
    cache["compile_units"] = draw(counters("emitted", "reused"))
    cache["singleflight"] = draw(counters(
        "leaders", "followers", "failures", "reelections", "inflight"))
    cache["resolved_cache"] = draw(counters("entries", "reused"))
    faults = None
    if draw(st.booleans()):
        faults = {"plan": fleet["plan"],
                  "sites": draw(st.dictionaries(
                      st.sampled_from(SITES), counters("calls", "fired")))}
    endpoints = draw(st.dictionaries(st.sampled_from(ROUTES),
                                     endpoint_rows()))
    return {
        "uptime_s": draw(st.floats(0.0, 1e5)),
        "inflight_limit": draw(st.none() | st.integers(1, 64)),
        "endpoints": dict(sorted(endpoints.items())),
        "resilience": {**draw(counters("deadline_exceeded", "shed",
                                       "slow")),
                       "faults": faults},
        "cache": cache,
        "sessions": {**draw(counters(*SESSION_COUNTERS)),
                     "segments": draw(counters("reparsed", "reused",
                                               "relocated"))},
        "dse": draw(counters(*DSE_COUNTERS)),
        "cas": draw(counters("served")),
        "jobs": {**draw(counters("submitted", "coalesced", "completed",
                                 "failed", "owned")),
                 "states": draw(st.dictionaries(
                     st.sampled_from(("queued", "running", "done",
                                      "error")), COUNT))},
    }


@st.composite
def fleets(draw) -> list[dict]:
    fleet = {"root": draw(st.sampled_from(("/srv/dahlia", "/tmp/cache"))),
             "max_bytes": draw(COUNT),
             "peers": draw(st.lists(st.sampled_from(("a:8080", "b:8080")),
                                    unique=True)),
             "plan": draw(st.sampled_from(("ci-drill", "kill-dse-leader")))}
    return [{"worker": worker, "pid": 1000 + worker,
             # Few distinct ages, so freshest-snapshot ties happen.
             "updated": draw(st.sampled_from((0.0, 1.0, 2.0))),
             "metrics": draw(snapshots(fleet))}
            for worker in range(draw(st.integers(1, 4)))]


def leaves(tree: dict, path: tuple = ()) -> dict[tuple, object]:
    """Every key path of ``tree`` to a non-dict or empty-dict value."""
    found: dict[tuple, object] = {}
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            found.update(leaves(value, path + (key,)))
        else:
            found[path + (key,)] = value
    return found


def assert_folds_agree(records: list[dict]) -> dict:
    expected = leaves(oracle_fold(records))
    folded = leaves(_aggregate_metrics(records))
    for path, value in expected.items():
        assert path in folded, f"{'.'.join(path)} missing"
        assert folded[path] == value, \
            f"{'.'.join(path)}: {folded[path]!r} != {value!r}"
    added = {path for path in folded if path not in expected}
    assert all(path[:2] in ADDED for path in added), sorted(added)
    return folded


@settings(max_examples=200, deadline=None)
@given(fleets())
def test_structural_fold_matches_the_hand_fold(records):
    assert_folds_agree(records)


def test_real_fleet_snapshots_fold_the_same(tmp_path):
    from tests.test_service_workers import (
        BAD,
        GOOD,
        spawn_server,
        stop_server,
        wait_for_fleet,
    )

    cache_dir = tmp_path / "cache"
    process, client = spawn_server(str(cache_dir), workers=2)
    try:
        wait_for_fleet(client, workers=2)
        for source in (GOOD, BAD, GOOD, BAD):
            client.raw("POST", "/check", {"source": source})
            client.raw("POST", "/estimate", {"source": source})
        client.session_open(GOOD, session="fold")
        fleet = client.metrics()
        records = WorkerBoard(Path(cache_dir) / "workers").read_all()
    finally:
        client.close()
        stop_server(process)
    assert len(records) == 2
    folded = assert_folds_agree(records)
    assert folded[("endpoints", "/check", "requests")] == 4
    assert {"owned", "states"} <= set(fleet["jobs"])
