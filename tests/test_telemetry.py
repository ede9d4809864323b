"""The observability core: spans, sampling, propagation, histograms.

Covers the tracing layer end to end in one process:

* span nesting, parent links, ring-buffer bounds, exporters;
* deterministic head sampling (same id → same decision everywhere);
* cross-process context propagation primitives (``propagate_env`` /
  ``env_context`` / ``adopted`` / ``attach_spans``);
* deadline and fault-injection span events;
* the Chrome trace-event export, pinned by a golden test — Perfetto
  parses this shape, so it must not drift silently;
* log-bucketed histograms: record / merge / quantile estimation, and
  the ``EndpointMetrics`` + ``_aggregate_metrics`` integration that
  turns per-worker snapshots into true fleet percentiles;
* the ``/trace`` route, trace spool, slow-request accounting, and the
  client's ``X-Request-Id`` behavior.
"""

import http.client
import json

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import _aggregate_metrics
from repro.service.server import DahliaService, EndpointMetrics
from repro.service.transport import BackgroundServer
from repro.util import telemetry
from repro.util.deadline import Deadline, DeadlineExceeded, check_deadline, \
    deadline_scope
from repro.util.faults import FaultPlan, FaultSpec, active
from repro.util.spool import Spool

GOOD = """
decl A: float[8 bank 2];
for (let i = 0..8) unroll 2 {
  A[i] := 1.0;
}
"""


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.clear_traces()
    telemetry.set_sample_rate(None)
    yield
    telemetry.clear_traces()
    telemetry.set_sample_rate(None)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_root_and_child_spans_link_and_publish():
    with telemetry.root_span("request", trace_id="t-1", kind="test") as root:
        assert telemetry.current_trace_id() == "t-1"
        with telemetry.span("child", cache="memory") as child:
            assert child.parent_id == root.span_id
            telemetry.add_event("tick", n=1)
    trace = telemetry.find_trace("t-1")
    assert trace is not None
    assert trace["root"] == root.span_id
    assert trace["name"] == "request"
    by_name = {s["name"]: s for s in trace["spans"]}
    assert by_name["child"]["parent_id"] == root.span_id
    assert by_name["child"]["attrs"]["cache"] == "memory"
    assert by_name["child"]["events"][0]["name"] == "tick"
    assert by_name["request"]["attrs"]["kind"] == "test"
    # Every span's parent must exist within the trace (connectedness).
    ids = {s["span_id"] for s in trace["spans"]}
    assert all(s["parent_id"] in ids for s in trace["spans"]
               if s["parent_id"])


def test_span_without_active_trace_is_shared_noop():
    assert telemetry.span("orphan") is telemetry.NOOP_SPAN
    with telemetry.span("orphan") as inner:
        inner.set_attr("ignored", 1)      # must not raise
        telemetry.add_event("ignored")
    assert telemetry.recent_traces() == []


def test_nested_root_span_degrades_to_child():
    with telemetry.root_span("outer", trace_id="t-nest"):
        with telemetry.root_span("inner") as inner:
            assert inner.trace_id == "t-nest"
    assert len(telemetry.recent_traces()) == 1
    names = {s["name"] for s in telemetry.find_trace("t-nest")["spans"]}
    assert names == {"outer", "inner"}


def test_span_records_exception_as_error_attr():
    with pytest.raises(ValueError):
        with telemetry.root_span("boom", trace_id="t-err"):
            raise ValueError("nope")
    trace = telemetry.find_trace("t-err")
    assert trace["spans"][0]["attrs"]["error"] == "ValueError: nope"


def test_ring_is_bounded_and_clearable():
    telemetry.set_ring_capacity(4)
    try:
        for index in range(10):
            with telemetry.root_span("r", trace_id=f"ring-{index}"):
                pass
        recent = telemetry.recent_traces(limit=100)
        assert len(recent) == 4
        assert recent[0]["trace_id"] == "ring-9"       # newest first
        assert telemetry.find_trace("ring-0") is None  # aged out
        telemetry.clear_traces()
        assert telemetry.recent_traces() == []
    finally:
        telemetry.set_ring_capacity(telemetry.DEFAULT_RING_CAPACITY)


def test_exporter_sees_finished_traces_and_errors_are_swallowed():
    seen = []

    def exporter(trace):
        seen.append(trace["trace_id"])
        raise RuntimeError("exporters must never break serving")

    telemetry.add_exporter(exporter)
    try:
        with telemetry.root_span("r", trace_id="exp-1"):
            pass
    finally:
        telemetry.remove_exporter(exporter)
    assert seen == ["exp-1"]
    with telemetry.root_span("r", trace_id="exp-2"):
        pass
    assert seen == ["exp-1"]              # removed exporters stay removed


def test_span_cap_drops_and_counts():
    with telemetry.root_span("r", trace_id="cap-1"):
        for _ in range(telemetry.MAX_SPANS_PER_TRACE + 10):
            with telemetry.span("s"):
                pass
    trace = telemetry.find_trace("cap-1")
    assert len(trace["spans"]) == telemetry.MAX_SPANS_PER_TRACE
    assert trace["dropped"] == 11         # 10 children + the root


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_decision_is_deterministic_and_monotone():
    ids = [f"trace-{n}" for n in range(200)]
    first = [telemetry.sample_decision(i, 0.5) for i in ids]
    assert first == [telemetry.sample_decision(i, 0.5) for i in ids]
    assert 0 < sum(first) < len(ids)      # 0.5 keeps some, drops some
    kept_half = {i for i, keep in zip(ids, first) if keep}
    kept_more = {i for i in ids if telemetry.sample_decision(i, 0.9)}
    assert kept_half <= kept_more         # raising the rate only adds
    assert all(telemetry.sample_decision(i, 1.0) for i in ids)
    assert not any(telemetry.sample_decision(i, 0.0) for i in ids)


def test_unsampled_root_span_records_nothing():
    with telemetry.root_span("r", trace_id="drop-1",
                             sample_rate=0.0) as root:
        assert root is telemetry.NOOP_SPAN
        assert telemetry.current_trace_id() is None
    assert telemetry.recent_traces() == []


def test_set_sample_rate_overrides_default():
    telemetry.set_sample_rate(0.0)
    assert telemetry.default_sample_rate() == 0.0
    with telemetry.root_span("r", trace_id="rate-1"):
        pass
    assert telemetry.recent_traces() == []
    telemetry.set_sample_rate(None)
    with telemetry.root_span("r", trace_id="rate-2"):
        pass
    assert telemetry.find_trace("rate-2") is not None


# ---------------------------------------------------------------------------
# Cross-process propagation primitives
# ---------------------------------------------------------------------------

def test_propagate_env_round_trip(monkeypatch):
    monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
    assert telemetry.env_context() is None
    with telemetry.root_span("r", trace_id="prop-1") as root:
        with telemetry.propagate_env():
            context = telemetry.env_context()
            assert context == {"trace_id": "prop-1",
                               "span_id": root.span_id}
        assert telemetry.env_context() is None   # restored on exit


def test_adopted_context_collects_spans_for_shipping():
    context = {"trace_id": "remote-1", "span_id": "parent-span"}
    with telemetry.adopted(context) as collect:
        with telemetry.span("dse.chunk", chunk=3):
            pass
        records = collect()
    assert len(records) == 1
    assert records[0]["trace_id"] == "remote-1"
    assert records[0]["parent_id"] == "parent-span"
    # Adopted spans are collected, never published locally.
    assert telemetry.recent_traces() == []


def test_adopted_none_context_is_a_noop():
    with telemetry.adopted(None) as collect:
        with telemetry.span("ignored"):
            pass
        assert collect() == []


def test_attach_spans_stitches_worker_records_into_live_trace():
    foreign = {"trace_id": "stitch-1", "span_id": "w-1",
               "parent_id": None, "name": "dse.chunk", "start_s": 1.0,
               "duration_s": 0.5, "pid": 999, "tid": 1,
               "attrs": {}, "events": []}
    with telemetry.root_span("r", trace_id="stitch-1"):
        telemetry.attach_spans([foreign])
    trace = telemetry.find_trace("stitch-1")
    assert {s["name"] for s in trace["spans"]} == {"r", "dse.chunk"}


# ---------------------------------------------------------------------------
# Deadline and fault events
# ---------------------------------------------------------------------------

def test_deadline_exceeded_records_span_event():
    with telemetry.root_span("r", trace_id="dl-1"):
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(DeadlineExceeded):
                check_deadline()
    events = telemetry.find_trace("dl-1")["spans"][0]["events"]
    assert events[0]["name"] == "deadline_exceeded"
    assert events[0]["attrs"]["budget_s"] == 0.0


def test_fault_injection_records_span_event():
    plan = FaultPlan({"pipeline.stage": FaultSpec()}, name="drill")
    with active(plan):
        with telemetry.root_span("r", trace_id="fault-1"):
            plan.trigger("pipeline.stage")
    events = telemetry.find_trace("fault-1")["spans"][0]["events"]
    assert events[0]["name"] == "fault"
    assert events[0]["attrs"]["site"] == "pipeline.stage"
    assert events[0]["attrs"]["plan"] == "drill"


# ---------------------------------------------------------------------------
# Chrome trace-event export (golden)
# ---------------------------------------------------------------------------

def test_chrome_trace_golden():
    """Pin the export schema byte-for-byte on a hand-built trace.

    Perfetto / ``chrome://tracing`` parse this shape; any change to
    event fields, phases, units, or metadata must update this test
    deliberately.
    """
    trace = {
        "trace_id": "feedbeef00000000",
        "root": "aaaaaaaaaaaaaaaa",
        "name": "POST /check",
        "start_s": 1000.0,
        "duration_s": 0.5,
        "dropped": 0,
        "spans": [
            {"trace_id": "feedbeef00000000",
             "span_id": "aaaaaaaaaaaaaaaa", "parent_id": None,
             "name": "POST /check", "start_s": 1000.0,
             "duration_s": 0.5, "pid": 11, "tid": 7,
             "attrs": {"status": 200},
             "events": [{"name": "fault", "ts_s": 1000.25,
                         "attrs": {"site": "server.handle"}}]},
            {"trace_id": "feedbeef00000000",
             "span_id": "bbbbbbbbbbbbbbbb",
             "parent_id": "aaaaaaaaaaaaaaaa",
             "name": "stage:check", "start_s": 1000.25,
             "duration_s": 0.25, "pid": 12, "tid": 9,
             "attrs": {"cache": "memory"}, "events": []},
        ],
    }
    assert telemetry.chrome_trace(trace) == {
        "traceEvents": [
            {"name": "POST /check", "cat": "repro", "ph": "X",
             "ts": 0.0, "dur": 500000.0, "pid": 11, "tid": 7,
             "args": {"status": 200}},
            {"name": "fault", "cat": "repro", "ph": "i",
             "ts": 250000.0, "s": "t", "pid": 11, "tid": 7,
             "args": {"site": "server.handle"}},
            {"name": "stage:check", "cat": "repro", "ph": "X",
             "ts": 250000.0, "dur": 250000.0, "pid": 12, "tid": 9,
             "args": {"cache": "memory"}},
            {"name": "process_name", "ph": "M", "pid": 11,
             "args": {"name": "repro pid 11"}},
            {"name": "process_name", "ph": "M", "pid": 12,
             "args": {"name": "repro pid 12"}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": "feedbeef00000000",
            "root": "aaaaaaaaaaaaaaaa",
            "name": "POST /check",
        },
    }


def test_chrome_trace_of_live_trace_is_schema_valid():
    with telemetry.root_span("r", trace_id="chrome-live"):
        with telemetry.span("child"):
            telemetry.add_event("tick")
    rendered = telemetry.chrome_trace(telemetry.find_trace("chrome-live"))
    assert json.loads(json.dumps(rendered)) == rendered   # JSON-safe
    phases = [e["ph"] for e in rendered["traceEvents"]]
    assert phases.count("X") == 2 and "i" in phases and "M" in phases
    for event in rendered["traceEvents"]:
        assert event["ts"] >= 0.0 if "ts" in event else True
        assert isinstance(event["pid"], int)


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

def test_histogram_record_and_sparse_dict():
    histogram = telemetry.LatencyHistogram()
    for _ in range(3):
        histogram.record(0.04)            # below the first bound
    histogram.record(1.0)                 # lands in the 1.6 ms bucket
    histogram.record(10 ** 9)             # beyond every bound
    sparse = histogram.as_dict()
    assert sparse == {"0.05": 3, "1.6": 1, telemetry.OVERFLOW_KEY: 1}


def test_merge_bucket_counts_is_plain_addition():
    merged = telemetry.merge_bucket_counts([
        {"0.1": 2, "1.6": 1},
        {"0.1": 3, telemetry.OVERFLOW_KEY: 4},
        {},
    ])
    assert merged == {"0.1": 5, "1.6": 1, telemetry.OVERFLOW_KEY: 4}


def test_quantile_interpolates_within_bucket():
    # 100 samples in the 1.6 ms bucket, nothing below: interpolation
    # runs from the previous *occupied* bound (0 here), so the median
    # lands mid-way to the bucket's upper bound.
    assert telemetry.quantile_from_buckets({"1.6": 100}, 0.50) \
        == pytest.approx(0.8)
    # With the 0.8 bucket occupied, the same rank interpolates within
    # (0.8, 1.6].
    assert telemetry.quantile_from_buckets({"0.8": 50, "1.6": 50}, 0.75) \
        == pytest.approx(1.2)
    # Overflow answers with the largest finite bound (honest floor).
    assert telemetry.quantile_from_buckets(
        {"0.1": 1, telemetry.OVERFLOW_KEY: 99}, 0.99) == 0.1
    assert telemetry.quantile_from_buckets({}, 0.5) == 0.0


def test_quantiles_track_the_union_not_the_mean_of_means():
    fast = telemetry.LatencyHistogram()
    slow = telemetry.LatencyHistogram()
    for _ in range(98):
        fast.record(0.3)
    slow.record(400.0)
    slow.record(400.0)
    merged = telemetry.merge_bucket_counts(
        [fast.as_dict(), slow.as_dict()])
    p50 = telemetry.quantile_from_buckets(merged, 0.50)
    p99 = telemetry.quantile_from_buckets(merged, 0.99)
    assert p50 < 1.0                      # the bulk is fast
    assert p99 > 100.0                    # the straggler is visible


def test_endpoint_metrics_keeps_historical_keys_and_adds_percentiles():
    metric = EndpointMetrics()
    metric.record(2.0, error=False)
    metric.record(4.0, error=True)
    row = metric.as_dict()
    assert row["requests"] == 2 and row["errors"] == 1
    assert row["total_ms"] == 6.0 and row["mean_ms"] == 3.0
    assert row["max_ms"] == 4.0
    assert set(row) >= {"p50_ms", "p95_ms", "p99_ms", "buckets"}
    assert sum(row["buckets"].values()) == 2


def test_aggregate_metrics_folds_buckets_across_workers():
    def worker(requests, total_ms, buckets, slow=0):
        return {"updated": 1.0, "metrics": {
            "endpoints": {"/check": {
                "requests": requests, "errors": 0,
                "total_ms": total_ms, "max_ms": total_ms,
                "buckets": buckets}},
            "resilience": {"deadline_exceeded": 0, "shed": 0,
                           "slow": slow},
            "cache": {},
        }}

    aggregated = _aggregate_metrics([
        worker(98, 29.4, {"0.4": 98}, slow=1),
        worker(2, 800.0, {"409.6": 2}, slow=2),
    ])
    row = aggregated["endpoints"]["/check"]
    assert row["requests"] == 100
    assert row["buckets"] == {"0.4": 98, "409.6": 2}
    assert row["p50_ms"] < 1.0
    assert row["p99_ms"] > 100.0
    assert row["mean_ms"] == pytest.approx(8.294)
    assert aggregated["resilience"]["slow"] == 3


def test_old_snapshots_without_buckets_still_aggregate():
    """A worker mid-upgrade publishes no ``buckets`` key; the fold
    must not crash and the counters must still sum."""
    legacy = {"updated": 1.0, "metrics": {
        "endpoints": {"/check": {"requests": 5, "errors": 1,
                                 "total_ms": 10.0, "max_ms": 4.0}},
        "resilience": {}, "cache": {}}}
    row = _aggregate_metrics([legacy])["endpoints"]["/check"]
    assert row["requests"] == 5 and row["buckets"] == {}
    assert row["p50_ms"] == 0.0


# ---------------------------------------------------------------------------
# The service: /trace route, spool, slow log, request ids
# ---------------------------------------------------------------------------

def test_trace_route_lookup_listing_and_errors():
    service = DahliaService(dse_workers=0, trace_sample=1.0)
    body = json.dumps({"source": GOOD}).encode()
    status, _ = service.handle("POST", "/check", body,
                               request_id="route-trace-1")
    assert status == 200

    status, payload = service.handle("GET", "/trace?id=route-trace-1", b"")
    assert status == 200
    names = {s["name"] for s in payload["trace"]["spans"]}
    assert "POST /check" in names
    assert any(name.startswith("stage:") for name in names)

    status, payload = service.handle(
        "GET", "/trace?id=route-trace-1&format=chrome", b"")
    assert status == 200
    assert "traceEvents" in payload

    status, payload = service.handle("GET", "/trace", b"")
    assert status == 200
    assert payload["count"] >= 1
    assert payload["traces"][0]["trace_id"]

    status, payload = service.handle("GET", "/trace?id=missing", b"")
    assert status == 404 and payload["ok"] is False
    status, _ = service.handle("GET", "/trace?format=pdf", b"")
    assert status == 400
    status, _ = service.handle("GET", "/trace?limit=many", b"")
    assert status == 400


def test_get_requests_are_never_traced():
    service = DahliaService(dse_workers=0, trace_sample=1.0)
    for _ in range(3):
        service.handle("GET", "/healthz", b"", request_id="probe-1")
    assert telemetry.find_trace("probe-1") is None


def test_unsampled_service_traces_nothing():
    service = DahliaService(dse_workers=0, trace_sample=0.0)
    body = json.dumps({"source": GOOD}).encode()
    status, _ = service.handle("POST", "/check", body,
                               request_id="unsampled-1")
    assert status == 200
    assert telemetry.find_trace("unsampled-1") is None
    status, _ = service.handle("GET", "/trace?id=unsampled-1", b"")
    assert status == 404


def test_trace_spool_hashes_hostile_ids_and_prunes(tmp_path):
    spool = Spool(tmp_path, "trace_id")
    hostile = "../../etc/passwd"
    assert spool.path_for(hostile).parent == tmp_path
    spool.write({"trace_id": hostile, "spans": []})
    assert spool.read(hostile) == {"trace_id": hostile, "spans": []}
    for index in range(Spool.MAX_FILES + 2 * Spool._PRUNE_EVERY):
        spool.write({"trace_id": f"spool-{index}", "spans": []})
    # Pruning is periodic (every _PRUNE_EVERY writes), so the spool may
    # exceed MAX_FILES by less than one prune interval, never more.
    assert len(list(tmp_path.glob("*.json"))) \
        < Spool.MAX_FILES + Spool._PRUNE_EVERY


def test_spool_serves_other_workers_traces(tmp_path):
    """A trace spooled by one service is visible to a peer sharing the
    directory — the fleet /trace contract, without forking."""
    writer = DahliaService(dse_workers=0, trace_sample=1.0,
                           trace_dir=tmp_path)
    writer.export_trace({"trace_id": "peer-1", "name": "POST /check",
                         "start_s": 1.0, "duration_s": 0.1, "spans": []})
    telemetry.clear_traces()               # not in the peer's ring
    reader = DahliaService(dse_workers=0, trace_dir=tmp_path)
    status, payload = reader.handle("GET", "/trace?id=peer-1", b"")
    assert status == 200
    assert payload["trace"]["trace_id"] == "peer-1"
    assert any(t["trace_id"] == "peer-1"
               for t in reader.recent_traces(10))


def test_slow_request_log_counts_and_reports(caplog):
    service = DahliaService(dse_workers=0, trace_sample=0.0,
                            slow_request_ms=0.0)   # everything is slow
    body = json.dumps({"source": GOOD}).encode()
    with caplog.at_level("WARNING", logger="repro.service.server"):
        service.handle("POST", "/check", body, request_id="slow-1")
    assert service.local_metrics()["resilience"]["slow"] == 1
    assert any("slow request" in record.message
               and "slow-1" in record.message
               for record in caplog.records)


def test_http_transport_echoes_request_id_and_serves_trace():
    with BackgroundServer(DahliaService(dse_workers=0,
                                        trace_sample=1.0)) as server:
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            body = json.dumps({"source": GOOD})
            connection.request("POST", "/check", body=body,
                               headers={"X-Request-Id": "wire-id-1"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("X-Request-Id") == "wire-id-1"
            response.read()
        finally:
            connection.close()
        client = ServiceClient(port=server.port)
        payload = client.trace("wire-id-1")
        assert payload["trace"]["trace_id"] == "wire-id-1"
        # A request without the header gets a server-minted id back.
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            minted = response.getheader("X-Request-Id")
            assert minted and len(minted) == 16
            response.read()
        finally:
            connection.close()


def test_client_generates_and_reports_request_ids():
    with BackgroundServer(DahliaService(dse_workers=0)) as server:
        client = ServiceClient(port=server.port)
        assert client.last_request_id is None
        client.check(GOOD)
        first = client.last_request_id
        assert first and len(first) == 16
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/trace?id=never-sampled")
        assert excinfo.value.request_id == client.last_request_id
        assert f"[request {client.last_request_id}]" in str(excinfo.value)
        assert client.last_request_id != first   # one id per call


def test_client_connection_errors_carry_the_request_id():
    dead = ServiceClient(port=1, timeout=0.5)    # nothing listens here
    with pytest.raises(OSError) as excinfo:
        dead.health()
    assert "[request " in str(excinfo.value)


def test_healthz_limits_reports_tracing_knobs():
    with BackgroundServer(DahliaService(dse_workers=0, trace_sample=0.25,
                                        slow_request_ms=50.0)) as server:
        health = ServiceClient(port=server.port).health()
        assert health["limits"]["trace_sample"] == 0.25
        assert health["limits"]["slow_request_ms"] == 50.0
