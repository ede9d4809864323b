"""One request, one trace — across the fleet and the DSE pool.

The tentpole contract: a single ``/dse`` request against a prefork
fleet produces **one** exportable trace that spans the HTTP handler,
the pipeline stage (with cache attribution), the sweep, and the
per-chunk work done in supervised DSE pool worker *processes* — every
span's parent resolves within the trace, and the Chrome export of
that trace is loadable.

Also covered: the same connectedness under a fault plan that kills a
DSE worker mid-sweep, where the requeue/lost-worker recovery shows up
as events on the sweep span instead of silently vanishing.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import ServiceClient
from repro.util import telemetry
from repro.util.faults import FaultPlan, active

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Kills each DSE pool worker on its second task: the supervisor must
#: requeue the lost chunk and respawn — all of it visible in the trace.
KILL_PLAN = {
    "name": "kill-dse-worker", "seed": 3,
    "sites": {"dse.worker": {"skip": 1, "count": 1, "kill": True}},
}


def spawn_fleet(tmp_path, extra_env=None, workers=2, dse_workers=2):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", "")).rstrip(
                             os.pathsep)
    env.update(extra_env or {})
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers), "--dse-workers", str(dse_workers),
         "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=REPO_ROOT, env=env)
    banner = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    assert match, f"no address in serve banner: {banner!r}"
    client = ServiceClient(port=int(match.group(1)))
    client.wait_ready(timeout=60)
    return process, client


def stop_fleet(process):
    process.stdout.close()
    process.terminate()
    process.wait(timeout=30)


def assert_connected(trace):
    """Every span's parent must exist within the trace."""
    span_ids = {span["span_id"] for span in trace["spans"]}
    orphans = [span["name"] for span in trace["spans"]
               if span["parent_id"] and span["parent_id"] not in span_ids]
    assert not orphans, f"spans with unresolved parents: {orphans}"


def names_of(trace):
    return [span["name"] for span in trace["spans"]]


def test_fleet_dse_request_yields_one_connected_trace(tmp_path):
    process, client = spawn_fleet(tmp_path)
    try:
        summary = client.dse("md-knn", sample=24, workers=2)
        assert summary["ok"] and summary["points"] == 24
        request_id = client.last_request_id
        assert request_id

        payload = client.trace(request_id)
        trace = payload["trace"]
        assert trace["trace_id"] == request_id
        assert_connected(trace)

        names = names_of(trace)
        assert "POST /dse" in names            # the HTTP handler root
        assert "dse.summary" in names          # the pipeline layer
        assert "dse.sweep" in names            # the engine
        chunk_spans = [span for span in trace["spans"]
                       if span["name"] == "dse.chunk"]
        assert chunk_spans                     # per-chunk worker units
        # The chunks ran in DSE pool worker *processes*, distinct from
        # the serving worker that owns the root span.
        root_pid = next(span["pid"] for span in trace["spans"]
                        if span["name"] == "POST /dse")
        assert {span["pid"] for span in chunk_spans} - {root_pid}

        # The Chrome export of the same trace parses and covers every
        # participating process.
        chrome = client.trace(request_id, format="chrome")
        assert chrome["otherData"]["trace_id"] == request_id
        pids = {event["pid"] for event in chrome["traceEvents"]
                if event["ph"] == "X"}
        assert len(pids) >= 2

        # A compile-style request carries cache-tier attribution on
        # its stage spans; repeating it flips the tier to a hit.
        source = "decl A: float[4];\nA[0] := 1.0;"
        for expected_tiers in (("miss",), ("memory", "disk")):
            assert client.check(source)["ok"]
            # Capture before client.trace() — every call (GETs
            # included) mints a fresh request id.
            check_id = client.last_request_id
            check_trace = client.trace(check_id)["trace"]
            assert_connected(check_trace)
            payload_span = next(
                span for span in check_trace["spans"]
                if span["name"] == "stage:check_payload")
            assert payload_span["attrs"]["cache"] in expected_tiers
        second = check_id
        # The listing shows every trace, served from the shared spool
        # regardless of which worker answers.
        listing = client.trace(limit=50)
        listed = {row["trace_id"] for row in listing["traces"]}
        assert {request_id, second} <= listed
    finally:
        stop_fleet(process)


def test_fleet_trace_survives_dse_worker_kill(tmp_path):
    """Same connectedness with a fault plan killing DSE pool workers;
    the recovery (requeue + respawn) appears as sweep-span events."""
    process, client = spawn_fleet(
        tmp_path, extra_env={"REPRO_FAULT_PLAN": json.dumps(KILL_PLAN)})
    try:
        summary = client.dse("md-knn", sample=24, workers=2)
        assert summary["ok"] and summary["points"] == 24
        trace = client.trace(client.last_request_id)["trace"]
        assert_connected(trace)
        assert "dse.chunk" in names_of(trace)
        events = [event for span in trace["spans"]
                  for event in span["events"]]
        requeues = [e for e in events if e["name"] == "dse.requeue"]
        assert requeues, "a killed worker must surface a requeue event"
        assert any(e["attrs"]["reason"] == "lost-worker"
                   for e in requeues)
        assert any(e["name"] == "dse.lost_worker" for e in events)
    finally:
        stop_fleet(process)


def test_inprocess_sweep_trace_records_requeue_events():
    """The engine-level variant, without a fleet: a traced sweep under
    a killing fault plan still completes and the trace carries the
    requeue evidence."""
    from repro.dse.engine import sweep
    from repro.suite.generators import (
        gemm_blocked_kernel,
        gemm_blocked_source,
        gemm_blocked_space,
    )

    telemetry.clear_traces()
    configs = list(gemm_blocked_space().sample(40))
    plan = FaultPlan.from_dict(KILL_PLAN)
    with active(plan):
        with telemetry.root_span("sweep-drill", trace_id="drill-1",
                                 sample_rate=1.0):
            result = sweep(configs, gemm_blocked_source,
                           gemm_blocked_kernel, workers=2, chunk_size=5)
    assert result.stats.lost_workers > 0
    trace = telemetry.find_trace("drill-1")
    assert trace is not None
    assert_connected(trace)
    sweep_span = next(span for span in trace["spans"]
                      if span["name"] == "dse.sweep")
    assert sweep_span["attrs"]["requeued"] == result.stats.requeued
    assert sweep_span["attrs"]["lost_workers"] == result.stats.lost_workers
    event_names = [event["name"] for event in sweep_span["events"]]
    assert "dse.requeue" in event_names
    assert "dse.lost_worker" in event_names
    telemetry.clear_traces()


def test_inprocess_worker_faults_reach_the_trace():
    """An error injected in a DSE pool worker is a ``fault`` event (on
    the worker's ``dse.batch`` span) for every item the caller redoes."""
    from repro.dse.engine import sweep
    from repro.suite.generators import (
        gemm_blocked_kernel,
        gemm_blocked_source,
        gemm_blocked_space,
    )

    telemetry.clear_traces()
    plan = FaultPlan.from_dict({
        "name": "error-dse-worker", "seed": 3,
        "sites": {"dse.worker": {"count": 2, "error": "RuntimeError"}}})
    with active(plan), telemetry.root_span(
            "error-drill", trace_id="drill-2", sample_rate=1.0):
        sweep(list(gemm_blocked_space().sample(80)), gemm_blocked_source,
              gemm_blocked_kernel, workers=2)
    trace = telemetry.find_trace("drill-2")
    assert_connected(trace)
    events = [event for span in trace["spans"] for event in span["events"]]
    faults = [event for event in events if event["name"] == "fault"]
    redone = [event for event in events if event["name"] == "dse.requeue"
              and event["attrs"]["reason"] == "worker-error"]
    assert redone and len(faults) == len(redone)
    batches = {span["span_id"] for span in trace["spans"]
               if span["name"] == "dse.batch"}
    assert all(span["span_id"] in batches for span in trace["spans"]
               if any(e["name"] == "fault" for e in span["events"]))
    telemetry.clear_traces()


@pytest.mark.parametrize("sample_rate, expect_trace", [(1.0, True),
                                                       (0.0, False)])
def test_sampling_decision_spans_the_whole_tree(tmp_path, sample_rate,
                                                expect_trace):
    """The head-sampling knob gates the entire distributed trace."""
    process, client = spawn_fleet(
        tmp_path,
        extra_env={"REPRO_TRACE_SAMPLE": str(sample_rate)},
        workers=1, dse_workers=1)
    try:
        assert client.check("decl A: float[4];\nA[0] := 1.0;")["ok"]
        status, body = client.raw(
            "GET", f"/trace?id={client.last_request_id}")
        assert (status == 200) is expect_trace
        health = client.health()
        assert health["limits"]["trace_sample"] == sample_rate
    finally:
        stop_fleet(process)
