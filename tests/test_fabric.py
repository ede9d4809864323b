"""Distributed-fabric suite: remote CAS tier, fleet parity, async jobs.

Two in-process nodes with *separate* cache directories are federated
via ``peers``: node B's artifact store backs its misses with ``GET
/cas/{digest}`` probes against node A. The contract is transparency —
a response served from a peer's artifacts is byte-identical to one
computed locally, a dead or corrupt peer degrades to an ordinary
cache miss, and the ``/jobs`` surface resolves the same job from any
node sharing the spool directory.
"""

import hashlib
import json
import threading
import time

import pytest

from repro.service import (
    BackgroundServer,
    DahliaService,
    RemoteStore,
    ServiceClient,
    ServiceError,
    artifact_key,
)
from repro.suite import generators


def make_source(value: int) -> str:
    return (f"decl A: float[8 bank 2];\n"
            f"for (let i = 0..8) unroll 2 {{\n"
            f"  A[i] := {value}.0;\n"
            f"}}\n")


# ---------------------------------------------------------------------------
# Tentpole acceptance: two-node fleet, node B served from node A's CAS.
# ---------------------------------------------------------------------------

def test_two_node_fleet_byte_parity_via_remote_cas(tmp_path):
    """Node B answers byte-identically from node A's artifacts.

    A and B have disjoint cache directories — the only road from A's
    artifacts to B is the remote CAS tier. After warming A, the same
    requests against B must produce the exact bytes A produced, with
    B's remote-tier hit counter accounting for every artifact it
    fetched instead of recomputing.
    """
    service_a = DahliaService(cache_dir=tmp_path / "a")
    with BackgroundServer(service_a) as node_a:
        service_b = DahliaService(
            cache_dir=tmp_path / "b",
            peers=[f"{node_a.host}:{node_a.port}"])
        with BackgroundServer(service_b) as node_b:
            client_a = ServiceClient(host=node_a.host, port=node_a.port)
            client_b = ServiceClient(host=node_b.host, port=node_b.port)
            sources = [make_source(value) for value in range(6)]

            warmed = [client_a.raw("POST", "/check", {"source": source})
                      for source in sources]
            served = [client_b.raw("POST", "/check", {"source": source})
                      for source in sources]
            assert [status for status, _ in warmed] == [200] * 6
            assert warmed == served          # byte parity, A vs B

            remote = client_b.metrics()["cache"]["remote"]
            assert remote["peers"] == [f"{node_a.host}:{node_a.port}"]
            assert remote["hits"] > 0
            assert remote["corrupt"] == 0
            cas = client_a.cas_stats()["cas"]
            assert cas["served"] == remote["hits"]

            # B promoted the fetched artifacts: repeating the requests
            # answers from B's own tiers, not the peer.
            again = [client_b.raw("POST", "/check", {"source": source})
                     for source in sources]
            assert again == served
            assert client_b.metrics()["cache"]["remote"]["hits"] \
                == remote["hits"]


def test_dead_peer_degrades_to_cache_miss(tmp_path):
    """A peer that is down is a miss plus an error count, not a failure."""
    service = DahliaService(cache_dir=tmp_path / "cache",
                            peers=["127.0.0.1:1"])
    with BackgroundServer(service) as node:
        client = ServiceClient(host=node.host, port=node.port)
        response = client.check(make_source(1))
        assert response["ok"]
        remote = client.metrics()["cache"]["remote"]
        assert remote["hits"] == 0
        assert remote["errors"] > 0


def fetch_through_tampered_peer(tmp_path, source, tamper):
    """Serve ``source`` from node B, whose one peer A holds tampered files.

    Node A computes ``source`` once; then ``tamper(path)`` rewrites
    every artifact file on A's disk, and A restarts with an empty
    memory tier, so its CAS route serves the tampered bytes under a
    checksum header that matches them. Returns A's original
    ``(status, body)``, B's ``(status, body)``, and B's remote-tier
    counters.
    """
    with BackgroundServer(DahliaService(cache_dir=tmp_path / "a")) as warm:
        client = ServiceClient(host=warm.host, port=warm.port)
        expected = client.raw("POST", "/check", {"source": source})

    paths = list((tmp_path / "a").rglob("*.pkl"))
    assert paths
    for path in paths:
        tamper(path)

    with BackgroundServer(DahliaService(cache_dir=tmp_path / "a")) as node_a:
        service_b = DahliaService(
            cache_dir=tmp_path / "b",
            peers=[f"{node_a.host}:{node_a.port}"])
        with BackgroundServer(service_b) as node_b:
            client_b = ServiceClient(host=node_b.host, port=node_b.port)
            served = client_b.raw("POST", "/check", {"source": source})
            remote = client_b.metrics()["cache"]["remote"]
    return expected, served, remote


def test_corrupt_peer_response_is_rejected(tmp_path):
    """A peer serving bytes that fail to decode is a miss.

    Node A's disk copy of an artifact is flipped underneath it; B's
    remote fetch must detect the mismatch (or the decode failure),
    count it, and recompute locally rather than trust the bytes.
    """
    def corrupt(path):
        path.write_bytes(b"\x00garbage\x00" + path.read_bytes()[:16])

    expected, served, remote = fetch_through_tampered_peer(
        tmp_path, make_source(3), corrupt)
    assert expected[0] == 200
    assert served == expected
    assert remote["hits"] == 0
    assert remote["corrupt"] > 0


# ---------------------------------------------------------------------------
# /cas endpoint conformance.
# ---------------------------------------------------------------------------

def test_cas_roundtrip_and_rejections(tmp_path):
    with BackgroundServer(DahliaService()) as node:
        client = ServiceClient(host=node.host, port=node.port)
        source = make_source(2)
        client.check(source)
        pipeline = node.service.pipeline
        key = pipeline.key("check_payload", source)
        blob = pipeline.store.peek_blob(key)
        assert blob is not None

        # GET: exact bytes, verified against the digest header.
        assert client.cas_get(key.stage, key.digest) == blob
        # Unknown digest: None, not an error.
        assert client.cas_get(key.stage, "0" * 64) is None
        # The exchange is read-only: even a well-formed push of the
        # node's own blob is not a method /cas serves.
        status, _ = client.raw(
            "PUT", f"/cas/{key.digest}?stage={key.stage}"
                   f"&sha256={hashlib.sha256(blob).hexdigest()}", blob)
        assert status == 405
        # Missing stage parameter: rejected.
        status, _ = client.raw("GET", f"/cas/{key.digest}")
        assert status == 400

        counters = client.cas_stats()["cas"]
        assert counters == {"served": 1}


# ---------------------------------------------------------------------------
# Async /dse jobs conformance.
# ---------------------------------------------------------------------------

def test_async_job_lifecycle_and_coalescing():
    with BackgroundServer(DahliaService()) as node:
        client = ServiceClient(host=node.host, port=node.port)
        submitted = client.dse_submit("md-grid", sample=3,
                                      mode="frontier", sample_seed=5)
        assert submitted["ok"]
        assert submitted["state"] == "queued"
        assert not submitted["coalesced"]
        job_id = submitted["job"]

        # An identical concurrent submission coalesces onto the same
        # job id instead of running a second sweep.
        duplicate = client.dse_submit("md-grid", sample=3,
                                      mode="frontier", sample_seed=5)
        assert duplicate["job"] == job_id

        events = list(client.job_stream(job_id))
        assert events[-1]["type"] == "result"
        versions = [event["version"] for event in events
                    if event["type"] == "frontier"]
        assert versions == sorted(versions)
        payload = events[-1]["payload"]
        assert payload["ok"]

        record = client.job_wait(job_id, timeout=30)
        assert record["state"] == "done"
        assert record["result"] == payload

        # The job appears in the listing; the stream replays for a
        # late subscriber (terminal event again, same payload).
        listing = client.jobs(limit=10)
        assert any(job["job"] == job_id for job in listing["jobs"])
        replay = list(client.job_stream(job_id))
        assert replay[-1]["type"] == "result"
        assert replay[-1]["payload"] == payload

        metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == 1
        assert metrics["jobs"]["completed"] == 1
        assert metrics["dse"]["async_jobs"] == 2
        assert metrics["dse"]["coalesced"] >= 1


def test_async_job_error_state():
    with BackgroundServer(DahliaService()) as node:
        client = ServiceClient(host=node.host, port=node.port)
        submitted = client.dse_submit("no-such-space", sample=2)
        record = client.job_wait(submitted["job"], timeout=30)
        assert record["state"] == "error"
        assert "no-such-space" in record["error"]
        # Tailing a failed job surfaces the failure as a ServiceError
        # (the stream's terminal event is an error event).
        before = client.metrics()["endpoints"]["/jobs"]["errors"]
        with pytest.raises(ServiceError, match="no-such-space"):
            list(client.job_stream(submitted["job"]))
        metrics = client.metrics()
        assert metrics["jobs"]["failed"] == 1
        # ... and counts as the failed request it was on the wire.
        assert metrics["endpoints"]["/jobs"]["errors"] == before + 1


def test_unknown_job_is_404():
    with BackgroundServer(DahliaService()) as node:
        client = ServiceClient(host=node.host, port=node.port)
        with pytest.raises(ServiceError) as info:
            client.job("feedfacedeadbeef")
        assert info.value.status == 404


def test_jobs_resolve_across_nodes_sharing_a_spool(tmp_path):
    """A job submitted on one node is visible from another via the spool.

    This is the prefork/restart story: routing does not matter because
    the spool is the source of truth for job state.
    """
    spool = tmp_path / "jobs"
    service_a = DahliaService(job_dir=spool)
    service_b = DahliaService(job_dir=spool)
    with BackgroundServer(service_a) as node_a, \
            BackgroundServer(service_b) as node_b:
        client_a = ServiceClient(host=node_a.host, port=node_a.port)
        client_b = ServiceClient(host=node_b.host, port=node_b.port)
        submitted = client_a.dse_submit("md-grid", sample=3,
                                        mode="frontier", sample_seed=9)
        job_id = submitted["job"]
        done_on_a = client_a.job_wait(job_id, timeout=30)
        record = client_b.job(job_id)
        assert record["state"] == "done"
        assert record["result"] == done_on_a["result"]
        # Tailing from the non-owning node replays the same terminal
        # event from the spool.
        events = list(client_b.job_stream(job_id))
        assert events[-1]["type"] == "result"
        assert events[-1]["payload"] == done_on_a["result"]


# ---------------------------------------------------------------------------
# Sync /dse coalescing: a herd of identical sweeps costs one engine run.
# ---------------------------------------------------------------------------

def test_identical_concurrent_dse_requests_cost_one_sweep():
    with BackgroundServer(DahliaService()) as node:
        probe = ServiceClient(host=node.host, port=node.port)
        before = probe.metrics()
        probe.close()
        herd = 6
        params = {"space": "gemm-blocked", "sample": 6,
                  "mode": "frontier", "sample_seed": 11}
        barrier = threading.Barrier(herd)
        results = []

        def submit():
            client = ServiceClient(host=node.host, port=node.port,
                                   timeout=120.0)
            barrier.wait(timeout=30)
            results.append(client.raw("POST", "/dse", params))

        threads = [threading.Thread(target=submit) for _ in range(herd)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == herd
        assert all(status == 200 for status, _ in results)

        client = ServiceClient(host=node.host, port=node.port)
        metrics = client.metrics()
        coalesced = metrics["dse"]["coalesced"]
        assert coalesced >= 1
        # Every coalesced response shares the leader's summary object,
        # so at most (herd - coalesced) distinct byte strings exist.
        distinct = {body for _, body in results}
        assert len(distinct) == herd - coalesced
        # points_evaluated counts engine runs, not requests: with
        # coalescing, fewer sweeps ran than requests arrived.
        single = json.loads(results[0][1].decode())
        assert metrics["dse"]["points_evaluated"] \
            == single["evaluated"] * (herd - coalesced)
        # /dse coalesces on the pipeline's singleflight, so the cache
        # counters see every follower the /dse counter does.
        followers = (metrics["cache"]["singleflight"]["followers"]
                     - before["cache"]["singleflight"]["followers"])
        assert followers == coalesced - before["dse"]["coalesced"]
