"""Chaos suite: the service under injected faults.

The resilience contract (see docs/operations.md) is that faults are
*absorbed*, never *reflected*: a run under a seeded
:class:`~repro.util.faults.FaultPlan` must eventually produce byte
responses identical to a fault-free run, deadline-limited requests
must answer a structured error within a bounded time instead of
hanging, and a DSE sweep that loses workers must still return the
exact fault-free result. These tests drive real subprocess fleets,
in-process servers, and the sweep engine under such plans.
"""

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.service import (
    BackgroundServer,
    CompilerPipeline,
    DahliaService,
    DiskStore,
    ServiceClient,
    artifact_key,
    encode_payload,
)
from repro.util.faults import (
    KILL_EXIT_CODE,
    FaultPlan,
    active,
    install_plan,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_source(value: int) -> str:
    return (f"decl A: float[8 bank 2];\n"
            f"for (let i = 0..8) unroll 2 {{\n"
            f"  A[i] := {value}.0;\n"
            f"}}\n")


def spawn_fleet(cache_dir: str, *extra_args: str, workers: int = 2,
                retries: int = 0):
    """Start ``serve`` as a real subprocess; returns (process, client)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", "")).rstrip(
                             os.pathsep)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers), "--cache-dir", cache_dir,
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=REPO_ROOT, env=env)
    banner = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    assert match, f"no address in serve banner: {banner!r}"
    client = ServiceClient(port=int(match.group(1)), retries=retries,
                           backoff_s=0.05, total_deadline_s=60.0,
                           retry_seed=0)
    client.wait_ready(timeout=60)
    return process, client


def stop_fleet(process) -> None:
    process.stdout.close()
    process.terminate()
    process.wait(timeout=30)


# ---------------------------------------------------------------------------
# Tentpole acceptance: fleet under worker-kill faults, retrying client.
# ---------------------------------------------------------------------------

def test_fleet_byte_parity_under_worker_kill(tmp_path):
    """Kill fleet workers mid-burst; a retrying client sees zero failures.

    The plan kills each worker on its 61st POST (GET probes are exempt
    by construction), so a 200-request burst over two workers loses
    both processes at some point. The supervisor respawns them and the
    client retries through the connection resets — every response must
    be 200 and byte-identical to a direct library run.
    """
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "name": "kill-on-61st-post", "seed": 11,
        "sites": {"server.worker": {"skip": 60, "count": 1,
                                    "kill": True}},
    }))
    cache_dir = str(tmp_path / "cache")
    process, client = spawn_fleet(cache_dir, "--fault-plan",
                                  str(plan_file), retries=6)
    try:
        assert client.health()["limits"]["fault_plan"] \
            == "kill-on-61st-post"

        direct = CompilerPipeline(capacity=4096)
        requests = []
        for i in range(100):
            source = make_source(i % 25)
            requests.append(("/check", {"source": source}, "check_payload"))
            requests.append(("/estimate", {"source": source},
                             "estimate_payload"))
        expected = [encode_payload(direct.run(stage, body["source"], {}))
                    for _, body, stage in requests]

        def fire(index):
            path, body, _ = requests[index]
            return client.raw("POST", path, body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(fire, range(len(requests))))

        failures = [(status, body) for status, body in outcomes
                    if status != 200]
        assert not failures, f"requests failed under chaos: {failures[:3]}"
        for (status, body), want in zip(outcomes, expected):
            assert body == want
        assert client.retries_used > 0     # the chaos actually happened

        # The fleet must have healed: every worker alive again.
        deadline = time.monotonic() + 30.0
        while True:
            status, body = client.raw("GET", "/healthz")
            report = json.loads(body.decode())
            workers = report.get("workers", [])
            if (status == 200 and len(workers) == 2
                    and all(w["alive"] for w in workers)):
                break
            assert time.monotonic() < deadline, \
                f"fleet never healed: {report}"
            time.sleep(0.2)
    finally:
        stop_fleet(process)


# ---------------------------------------------------------------------------
# Disk-tier faults: ENOSPC writes and corrupt reads are cache misses.
# ---------------------------------------------------------------------------

def test_disk_fault_parity_and_skipped_write_count(tmp_path):
    plan = FaultPlan.from_dict({
        "name": "bad-disk", "seed": 5,
        "sites": {
            "disk.write": {"probability": 0.5, "error": "ENOSPC"},
            "disk.read": {"probability": 0.3, "error": "OSError"},
        },
    })
    direct = CompilerPipeline(capacity=4096)
    sources = [make_source(900_000 + i) for i in range(10)]
    expected = {source: encode_payload(
        direct.run("estimate_payload", source, {}))
        for source in sources}

    service = DahliaService(cache_dir=str(tmp_path))
    with active(plan):
        with BackgroundServer(service) as server:
            client = ServiceClient(port=server.port)
            for round_ in range(3):
                for source in sources:
                    status, body = client.raw("POST", "/estimate",
                                              {"source": source})
                    assert status == 200
                    assert body == expected[source]
            metrics = client.metrics()
    faults = metrics["resilience"]["faults"]
    assert faults["plan"] == "bad-disk"
    assert faults["sites"]["disk.write"]["fired"] > 0
    assert metrics["cache"]["disk"]["write_errors"] > 0
    assert metrics["resilience"]["deadline_exceeded"] == 0


def test_disk_store_counts_failed_writes(tmp_path):
    """Satellite: ENOSPC on write is a skipped write, not an error."""
    store = DiskStore(tmp_path, max_bytes=1 << 20)
    key = artifact_key("check", "some-source", {})
    plan = FaultPlan.from_dict({
        "sites": {"disk.write": {"error": "ENOSPC"}}})
    with active(plan):
        store.put(key, {"ok": True})       # must not raise
    assert store.stats()["write_errors"] == 1
    assert store.get(key, None) is None    # nothing was persisted
    store.put(key, {"ok": True})           # plan gone: write succeeds
    assert store.get(key, None) == {"ok": True}
    assert store.stats()["write_errors"] == 1


# ---------------------------------------------------------------------------
# Deadlines: slow handlers answer a structured 503 within the budget.
# ---------------------------------------------------------------------------

def test_request_deadline_returns_structured_503():
    plan = FaultPlan.from_dict({
        "name": "slow-stage", "seed": 1,
        "sites": {"pipeline.stage": {"latency_s": 30.0}},
    })
    with active(plan):
        with BackgroundServer(request_timeout=0.5) as server:
            client = ServiceClient(port=server.port)
            assert client.health()["limits"]["request_timeout_s"] == 0.5
            started = time.monotonic()
            status, body = client.raw("POST", "/check",
                                      {"source": make_source(1)})
            elapsed = time.monotonic() - started
            payload = json.loads(body.decode())
            metrics = client.metrics()
    assert status == 503
    assert payload["ok"] is False
    assert payload["deadline_exceeded"] is True
    assert payload["budget_s"] == 0.5
    # Cooperative cancellation fires at the budget; allow generous
    # scheduling slack but nowhere near the injected 30 s latency.
    assert elapsed < 5.0
    assert metrics["resilience"]["deadline_exceeded"] >= 1


def test_deadline_free_routes_are_unlimited():
    """Without --request-timeout nothing arms a deadline."""
    with BackgroundServer() as server:
        client = ServiceClient(port=server.port)
        health = client.health()
        assert health["limits"] == {"request_timeout_s": None,
                                    "queue_depth": None,
                                    "fault_plan": None,
                                    "trace_sample": 1.0,
                                    "slow_request_ms": None}
        assert client.check(make_source(2))["ok"] is True


def test_interpreter_stops_at_the_request_deadline():
    """An over-budget /interp stops inside the interpreter's loop, so
    the 503 frees the only executor thread for the next request
    instead of leaving it to run the loop to its end."""
    looping = ("decl A: float[4];\nlet i = 0;\nwhile (i < 1000000) {\n"
               "  A[0] := 1.0;\n  ---\n  i := i + 1;\n}\n")
    with BackgroundServer(DahliaService(), threads=1,
                          request_timeout=0.5) as server:
        client = ServiceClient(port=server.port, timeout=60)
        status, body = client.raw("POST", "/interp", {"source": looping})
        started = time.monotonic()
        assert client.check(make_source(3))["ok"] is True
        elapsed = time.monotonic() - started
    assert status == 503
    assert json.loads(body.decode())["deadline_exceeded"] is True
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# Admission control: bounded queue sheds with 429 + Retry-After.
# ---------------------------------------------------------------------------

def test_admission_control_sheds_and_retry_succeeds():
    plan = FaultPlan.from_dict({
        "name": "one-slow-request", "seed": 2,
        "sites": {"pipeline.stage": {"latency_s": 2.0, "count": 1}},
    })
    with active(plan):
        with BackgroundServer(max_inflight=1, queue_depth=0) as server:
            slow_done = []

            def slow():
                client = ServiceClient(port=server.port, timeout=30.0)
                slow_done.append(client.raw("POST", "/check",
                                            {"source": make_source(3)}))

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.5)               # let the slow POST hold the slot

            # A bare POST while the slot is held: shed, with the header.
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0)
            try:
                connection.request(
                    "POST", "/check",
                    body=json.dumps({"source": make_source(4)}).encode(),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                shed_body = json.loads(response.read().decode())
                assert response.status == 429
                assert response.getheader("Retry-After") == "1"
                assert shed_body["shed"] is True
                assert shed_body["retry_after_s"] > 0
            finally:
                connection.close()

            # A retrying client rides out the shed window.
            retrying = ServiceClient(port=server.port, retries=8,
                                     backoff_s=0.1, retry_seed=0)
            result = retrying.check(make_source(5))
            assert result["ok"] is True
            assert retrying.retries_used > 0

            thread.join(timeout=30)
            assert slow_done and slow_done[0][0] == 200
            metrics = ServiceClient(port=server.port).metrics()
            assert metrics["resilience"]["shed"] >= 1


# ---------------------------------------------------------------------------
# Crash-tolerant DSE sweeps.
# ---------------------------------------------------------------------------

def test_sweep_parity_with_killed_workers():
    from repro.dse.engine import sweep
    from repro.suite.generators import (
        gemm_blocked_kernel,
        gemm_blocked_source,
        gemm_blocked_space,
    )

    configs = list(gemm_blocked_space().sample(80))
    baseline = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                     workers=2, chunk_size=10)
    plan = FaultPlan.from_dict({
        "name": "kill-sweep-worker", "seed": 3,
        "sites": {"dse.worker": {"skip": 1, "count": 1, "kill": True}},
    })
    with active(plan):
        chaotic = sweep(configs, gemm_blocked_source,
                        gemm_blocked_kernel, workers=2, chunk_size=10)

    assert len(chaotic.points) == len(baseline.points) == 80
    for mine, reference in zip(chaotic.points, baseline.points):
        assert mine.config == reference.config
        assert mine.accepted == reference.accepted
        assert mine.rejection == reference.rejection
        assert mine.report == reference.report
    assert chaotic.stats.requeued > 0
    assert chaotic.stats.lost_workers > 0
    assert chaotic.stats.checker_runs + chaotic.stats.memo_hits == 80
    assert baseline.stats.requeued == 0
    assert baseline.stats.lost_workers == 0


def test_sweep_requeues_erroring_worker_chunks():
    """An exception (not a death) in a worker also requeues the chunk."""
    from repro.dse.engine import sweep
    from repro.suite.generators import (
        gemm_blocked_kernel,
        gemm_blocked_source,
        gemm_blocked_space,
    )

    configs = list(gemm_blocked_space().sample(40))
    baseline = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                     workers=2, chunk_size=5)
    plan = FaultPlan.from_dict({
        "name": "flaky-sweep-worker", "seed": 4,
        "sites": {"dse.worker": {"count": 2, "error": "RuntimeError"}},
    })
    with active(plan):
        chaotic = sweep(configs, gemm_blocked_source,
                        gemm_blocked_kernel, workers=2, chunk_size=5)
    assert [(p.accepted, p.rejection) for p in chaotic.points] \
        == [(p.accepted, p.rejection) for p in baseline.points]
    assert chaotic.stats.requeued > 0
    assert chaotic.stats.lost_workers == 0   # nobody actually died


def test_sweep_progress_is_monotonic_under_chaos():
    from repro.dse.engine import sweep
    from repro.suite.generators import (
        gemm_blocked_kernel,
        gemm_blocked_source,
        gemm_blocked_space,
    )

    configs = list(gemm_blocked_space().sample(40))
    seen = []
    plan = FaultPlan.from_dict({
        "seed": 6,
        "sites": {"dse.worker": {"skip": 1, "count": 1, "kill": True}},
    })
    with active(plan):
        sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
              workers=2, chunk_size=5, progress=seen.append)
    assert seen == sorted(seen)
    assert seen[-1] == 40


# ---------------------------------------------------------------------------
# Satellites: BackgroundServer crash surfacing, client retry mechanics.
# ---------------------------------------------------------------------------

def test_background_server_surfaces_bind_failure():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        with pytest.raises(RuntimeError, match="failed to start"):
            BackgroundServer(port=port).start()
    finally:
        blocker.close()


def test_background_server_surfaces_teardown_crash():
    server = BackgroundServer().start()

    async def broken_stop():
        raise RuntimeError("teardown exploded")

    server.server.stop = broken_stop
    with pytest.raises(RuntimeError, match="crashed while serving"):
        server.stop()


def test_client_gives_up_after_total_deadline():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()                          # nothing listens here now
    client = ServiceClient(port=free_port, timeout=1.0, retries=10,
                           backoff_s=0.05, total_deadline_s=0.4,
                           retry_seed=0)
    started = time.monotonic()
    with pytest.raises(OSError):
        client.raw("GET", "/healthz")
    assert time.monotonic() - started < 5.0
    assert client.retries_used >= 1


def test_client_does_not_retry_by_default():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    client = ServiceClient(port=free_port, timeout=1.0)
    with pytest.raises(OSError):
        client.raw("GET", "/healthz")
    assert client.retries_used == 0


def test_client_honors_retry_after_header():
    """A 429 with Retry-After floors the backoff; the retry succeeds."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    port = listener.getsockname()[1]
    served = []

    def tiny_server():
        shed = (b"HTTP/1.1 429 Too Many Requests\r\n"
                b"Content-Type: application/json\r\n"
                b"Retry-After: 1\r\nContent-Length: 13\r\n"
                b"Connection: close\r\n\r\n"
                b'{"ok": false}')
        ok = (b"HTTP/1.1 200 OK\r\n"
              b"Content-Type: application/json\r\n"
              b"Content-Length: 12\r\nConnection: close\r\n\r\n"
              b'{"ok": true}')
        for response in (shed, ok):
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(response)
            conn.close()
            served.append(time.monotonic())

    thread = threading.Thread(target=tiny_server, daemon=True)
    thread.start()
    client = ServiceClient(port=port, timeout=10.0, retries=3,
                           backoff_s=0.01, retry_seed=0)
    try:
        assert client.request("GET", "/healthz") == {"ok": True}
    finally:
        thread.join(timeout=15)
        listener.close()
    assert client.retries_used == 1
    # The Retry-After: 1 header floors the otherwise-tiny backoff.
    assert served[1] - served[0] >= 1.0


# ---------------------------------------------------------------------------
# Singleflight under chaos: a killed coalescing leader re-elects.
# ---------------------------------------------------------------------------

def test_killed_singleflight_leader_reelects_with_identical_bytes():
    """Kill the /dse coalescing leader mid-compile; followers recover.

    The fault holds the first elected leader at the
    ``singleflight.leader`` site long enough for identical requests to
    pile onto its flight, then fails it. The contract: only the dead
    leader's own request surfaces the fault (500); every follower
    re-elects, exactly one replacement sweep runs, and all surviving
    responses are byte-identical — coalescing shares one summary, so
    there is no per-request timing skew to diverge them.
    """
    service = DahliaService()
    body = json.dumps({"space": "gemm-blocked", "sample": 8,
                       "mode": "frontier", "sample_seed": 2}).encode()
    plan = FaultPlan.from_dict({
        "name": "kill-dse-leader", "seed": 5,
        "sites": {"singleflight.leader": {
            "count": 1, "latency_s": 0.5, "error": "RuntimeError"}},
    })
    responses = []

    def submit():
        responses.append(service.handle("POST", "/dse", body))

    with active(plan):
        leader = threading.Thread(target=submit)
        leader.start()
        # The doomed leader is parked in the fault's latency window;
        # wait for its flight to register, then pile on followers so
        # they are provably coalesced onto the flight that will die.
        deadline = time.monotonic() + 5.0
        while service._dse_flights.stats()["inflight"] == 0:
            assert time.monotonic() < deadline, "leader never took off"
            time.sleep(0.005)
        followers = [threading.Thread(target=submit) for _ in range(3)]
        for thread in followers:
            thread.start()
        leader.join(timeout=120)
        for thread in followers:
            thread.join(timeout=120)

    assert len(responses) == 4
    failures = [(status, payload) for status, payload in responses
                if status != 200]
    survivors = [payload for status, payload in responses if status == 200]
    assert len(failures) == 1            # the killed leader's request only
    assert "RuntimeError" in failures[0][1]["error"]
    assert len(survivors) == 3
    assert all(payload["ok"] for payload in survivors)
    blobs = {encode_payload(payload) for payload in survivors}
    assert len(blobs) == 1               # byte-identical across survivors

    flights = service._dse_flights.stats()
    assert flights["failures"] == 1
    assert flights["reelections"] == 1   # exactly one promotion
    assert flights["leaders"] == 2       # dead leader + its replacement
    assert flights["inflight"] == 0
    # No duplicate sweeps: the engine ran once, so the fleet-level
    # points_evaluated equals a single response's evaluated count.
    _, metrics = service.handle("GET", "/metrics", b"")
    assert metrics["dse"]["points_evaluated"] == survivors[0]["evaluated"]
    assert metrics["dse"]["coalesced"] >= 2


def test_kill_exit_code_is_distinct():
    """The injected-death exit code must not collide with Python's."""
    assert KILL_EXIT_CODE not in (0, 1, 2)


def test_env_plan_reaches_subprocesses(tmp_path):
    """REPRO_FAULT_PLAN alone activates faults in a fresh process."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "name": "env-drill",
        "sites": {"pipeline.stage": {"error": "RuntimeError"}}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", "")).rstrip(
                             os.pathsep)
    env["REPRO_FAULT_PLAN"] = str(plan_file)
    script = ("from repro.util.faults import active_plan, fault_point\n"
              "assert active_plan().name == 'env-drill'\n"
              "try:\n"
              "    fault_point('pipeline.stage')\n"
              "except RuntimeError:\n"
              "    print('fired')\n")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "fired"


def test_malformed_fault_plan_is_loud(tmp_path):
    with pytest.raises(ValueError, match="unknown fault-spec"):
        FaultPlan.from_dict({"sites": {"disk.write": {"chance": 0.5}}})
    install_plan(None)                     # leave the global state clean
