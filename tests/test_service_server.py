"""End-to-end tests for the compiler service.

The headline contracts:

* **Byte parity** — the HTTP response body for every POST endpoint is
  byte-identical to ``encode_payload`` of the direct library call
  (a fresh ``CompilerPipeline`` run of the same payload stage);
* **Concurrent stress** — hundreds of mixed requests from a thread
  pool all come back matching direct calls, with sane metrics.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.service import (
    BackgroundServer,
    CompilerPipeline,
    DahliaService,
    ServiceClient,
    encode_payload,
)
from repro.service.client import ServiceError

GOOD = """
decl A: float[8 bank 2];
for (let i = 0..8) unroll 2 {
  A[i] := 1.0;
}
"""

BAD = """
decl A: float[8];
let x = A[0];
A[1] := 1.0
"""


def make_source(value: int) -> str:
    """A family of distinct-but-valid sources (distinct cache keys)."""
    return (f"decl A: float[8 bank 2];\n"
            f"for (let i = 0..8) unroll 2 {{\n"
            f"  A[i] := {value}.0;\n"
            f"}}\n")


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(DahliaService(capacity=4096)) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


# ---------------------------------------------------------------------------
# basic endpoints
# ---------------------------------------------------------------------------

def test_healthz(client):
    payload = client.health()
    assert payload["ok"] is True
    assert payload["service"] == "dahlia-py"


def test_stages_lists_the_figure1_flow(client):
    stages = client.stages()["stages"]
    assert stages["check"]["deps"] == ["parse"]
    assert set(stages["compile"]["options"]) == {"erase", "kernel_name"}
    for name in ("parse", "check", "estimate", "compile", "rtl",
                 "interp"):
        assert name in stages


def test_check_accepts(client):
    payload = client.check(GOOD)
    assert payload == {"ok": True, "memories": 1, "max_replication": 2}


def test_check_rejects_with_diagnostic(client):
    payload = client.check(BAD)
    assert payload["ok"] is False
    diagnostic = payload["diagnostic"]
    assert diagnostic["kind"] == "already-consumed"
    assert diagnostic["snippet"].endswith("^^^^")


def test_unknown_endpoint_404(client):
    status, body = client.raw("GET", "/nope")
    assert status == 404
    status, body = client.raw("POST", "/frobnicate", {"source": GOOD})
    assert status == 404


def test_method_not_allowed(client):
    status, _ = client.raw("PUT", "/check", {"source": GOOD})
    assert status == 405


def test_malformed_json_body_is_400(server):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=30)
    try:
        connection.request("POST", "/check", body=b"{nope",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        payload = json.loads(response.read())
        assert "JSON" in payload["error"]
    finally:
        connection.close()


def test_oversized_request_line_is_400(server):
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        # Longer than asyncio's 64 KiB StreamReader line limit.
        sock.sendall(b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n")
        head = sock.recv(4096).split(b"\r\n")[0]
    assert head == b"HTTP/1.1 400 Bad Request"


def test_oversized_header_block_is_400(server):
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(b"POST /check HTTP/1.1\r\n")
        filler = b"X-Filler: " + b"a" * 1000 + b"\r\n"
        for _ in range(100):              # ~100 KB of headers
            sock.sendall(filler)
        head = sock.recv(4096).split(b"\r\n")[0]
    assert head == b"HTTP/1.1 400 Bad Request"


def test_health_probe_answers_while_slots_are_held(server):
    # GET probes bypass the in-flight semaphore: even with every slot
    # occupied by slow POSTs, /healthz must answer promptly.
    import threading

    slow_client = ServiceClient(port=server.port, timeout=120)
    barrier = threading.Barrier(9)

    def occupy():
        barrier.wait()
        slow_client.dse("stencil2d", sample=200, workers=1)

    threads = [threading.Thread(target=occupy) for _ in range(8)]
    for thread in threads:
        thread.start()
    barrier.wait()                         # all 8 POSTs in flight
    probe = ServiceClient(port=server.port, timeout=10)
    assert probe.health()["ok"] is True
    for thread in threads:
        thread.join()


def test_unknown_paths_share_one_metrics_bucket(server, client):
    for i in range(5):
        client.raw("GET", f"/probe-{i}")
    endpoints = client.metrics()["endpoints"]
    assert "(unknown)" in endpoints
    assert endpoints["(unknown)"]["requests"] >= 5
    assert not any(path.startswith("/probe-") for path in endpoints)


def test_missing_source_is_400(client):
    with pytest.raises(ServiceError) as exc:
        client.request("POST", "/check", {"sauce": GOOD})
    assert exc.value.status == 400


def test_dse_worker_request_is_clamped_to_operator_cap(client):
    # A client cannot force the threaded server to fork a pool: the
    # requested worker count is capped at the operator's --dse-workers
    # (1 for the test fixture).
    payload = client.dse("stencil2d", sample=20, workers=8)
    assert payload["engine"]["workers"] == 1


def test_dse_unknown_space_is_400(client):
    with pytest.raises(ServiceError) as exc:
        client.dse("warp-drive", sample=10)
    assert exc.value.status == 400
    assert "unknown DSE space" in str(exc.value)


# ---------------------------------------------------------------------------
# byte parity with direct library calls
# ---------------------------------------------------------------------------

PARITY_CASES = [
    ("/check", "check_payload", {"source": GOOD}, {}),
    ("/check", "check_payload", {"source": BAD}, {}),
    ("/estimate", "estimate_payload", {"source": GOOD}, {}),
    ("/compile", "compile_payload",
     {"source": GOOD, "erase": True, "kernel_name": "widget"},
     {"erase": True, "kernel_name": "widget"}),
    ("/rtl", "rtl_payload", {"source": GOOD, "module_name": "accel"},
     {"module_name": "accel"}),
    ("/interp", "interp_payload", {"source": GOOD}, {}),
]


@pytest.mark.parametrize("path,stage,request_body,options", PARITY_CASES)
def test_served_bytes_match_direct_library_call(client, path, stage,
                                                request_body, options):
    status, body = client.raw("POST", path, request_body)
    assert status == 200
    direct = CompilerPipeline().run(stage, request_body["source"], options)
    assert body == encode_payload(direct)


def test_served_dse_matches_direct_call(client):
    from repro.service.pipeline import dse_summary

    payload = client.dse("stencil2d", sample=40, workers=1)
    direct = {"ok": True, **dse_summary("stencil2d", sample=40,
                                        workers=1)}
    # Engine wall-clock timings legitimately differ between runs;
    # everything else must be byte-identical.
    served_engine = payload.pop("engine")
    direct_engine = direct.pop("engine")
    assert encode_payload(payload) == encode_payload(direct)
    for key in ("points", "workers", "chunk_size", "checker_runs",
                "memo_hits"):
        assert served_engine[key] == direct_engine[key]


def test_warm_requests_hit_the_artifact_cache(server):
    client = ServiceClient(port=server.port)
    source = make_source(940_123)          # unseen by other tests
    cold = client.metrics()["cache"]["hits"]
    first = client.estimate(source)
    warm = client.estimate(source)
    assert first == warm
    assert client.metrics()["cache"]["hits"] > cold


# ---------------------------------------------------------------------------
# concurrent stress: hundreds of mixed requests match direct calls
# ---------------------------------------------------------------------------

def test_concurrent_mixed_requests_match_direct_calls(server):
    client = ServiceClient(port=server.port)
    direct = CompilerPipeline(capacity=4096)

    requests = []                          # (path, body, stage, options)
    for i in range(60):
        source = make_source(i % 20)       # mix of fresh and repeated
        requests.append(("/check", {"source": source},
                         "check_payload", {}))
        requests.append(("/estimate", {"source": source},
                         "estimate_payload", {}))
        requests.append(("/compile",
                         {"source": source, "kernel_name": f"k{i % 7}"},
                         "compile_payload", {"kernel_name": f"k{i % 7}"}))
        requests.append(("/interp", {"source": source},
                         "interp_payload", {}))
    for i in range(20):
        requests.append(("/check", {"source": BAD + f"\n// {i % 5}"},
                         "check_payload", {}))

    expected = [encode_payload(direct.run(stage, body["source"], options))
                for _, body, stage, options in requests]

    def fire(index):
        path, body, _, _ = requests[index]
        return client.raw("POST", path, body)

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(fire, range(len(requests))))

    assert len(outcomes) == 260
    for (status, body), want in zip(outcomes, expected):
        assert status == 200
        assert body == want

    metrics = server.service.metrics()
    assert metrics["endpoints"]["/check"]["requests"] >= 60
    assert metrics["cache"]["hits"] > 0
    assert metrics["inflight_limit"] == 8


# ---------------------------------------------------------------------------
# CLI integration (serve plumbing + --server mode)
# ---------------------------------------------------------------------------

@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.fuse"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.fuse"
    path.write_text(BAD)
    return str(path)


def test_cli_check_via_server_matches_local(server, good_file, capsys):
    assert main(["check", good_file]) == 0
    local = capsys.readouterr().out
    addr = f"127.0.0.1:{server.port}"
    assert main(["check", good_file, "--server", addr]) == 0
    assert capsys.readouterr().out == local


def test_cli_estimate_via_server_matches_local(server, good_file, capsys):
    assert main(["estimate", good_file]) == 0
    local = capsys.readouterr().out
    addr = f"127.0.0.1:{server.port}"
    assert main(["estimate", good_file, "--server", addr]) == 0
    assert capsys.readouterr().out == local


def test_cli_compile_via_server_matches_local(server, good_file, capsys):
    argv = ["compile", good_file, "--kernel-name", "widget"]
    assert main(argv) == 0
    local = capsys.readouterr().out
    assert main(argv + ["--server", f"127.0.0.1:{server.port}"]) == 0
    assert capsys.readouterr().out == local


def test_cli_run_via_server_matches_local(server, good_file, capsys):
    assert main(["run", good_file]) == 0
    local = capsys.readouterr().out
    assert main(["run", good_file, "--server",
                 f"127.0.0.1:{server.port}"]) == 0
    assert capsys.readouterr().out == local


def test_cli_check_rejection_via_server_matches_local(server, bad_file,
                                                      capsys):
    assert main(["check", bad_file]) == 1
    local = capsys.readouterr().err
    assert main(["check", bad_file, "--server",
                 f"127.0.0.1:{server.port}"]) == 1
    assert capsys.readouterr().err == local


def test_cli_dse_via_server_reports_summary(server, capsys):
    assert main(["dse", "stencil2d", "--sample", "30", "--json",
                 "--server", f"127.0.0.1:{server.port}"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["points"] == 30
    assert "ok" not in summary             # CLI strips the wire flag


def test_cli_server_connection_failure_is_graceful(good_file, capsys):
    assert main(["check", good_file, "--server", "127.0.0.1:1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_client_address_parsing():
    client = ServiceClient.from_address("http://localhost:9000/")
    assert (client.host, client.port) == ("localhost", 9000)
    client = ServiceClient.from_address("10.0.0.2:8081")
    assert (client.host, client.port) == ("10.0.0.2", 8081)
    with pytest.raises(ValueError):
        ServiceClient.from_address("nonsense")


# ---------------------------------------------------------------------------
# the routing surface, pinned request by request
# ---------------------------------------------------------------------------

CAS_KEY = "/cas/" + "0" * 64
NO_JSON = ("body is not valid JSON: Expecting property name enclosed in "
           "double quotes: line 1 column 2 (char 1)")
NO_SOURCE = 'request must carry a string "source" field'
STREAM_ASYNC = (b'{"space": "stencil2d", "mode": "frontier", '
                b'"stream": true, "async": true}')
STREAM_BAD_SAMPLE = (b'{"space": "stencil2d", "mode": "frontier", '
                     b'"stream": true, "sample": "many"}')


def _not_allowed(method):
    return f"method {method} not allowed"


def _no_endpoint(path):
    return f"no such endpoint {path!r}"


def _sweep(path, get, post, delete=405, put=405):
    """One path under GET, POST, DELETE and PUT: ``(status, expected)``
    pairs, where an int alone is a status with the stock error text."""
    rows = []
    for method, outcome in (("GET", get), ("POST", post),
                            ("DELETE", delete), ("PUT", put)):
        status, expected = (outcome if isinstance(outcome, tuple)
                            else (outcome, None))
        if expected is None and status == 405:
            expected = _not_allowed(method)
        elif expected is None and status == 404:
            expected = _no_endpoint(path)
        body = b"{}" if method in ("POST", "PUT") else None
        rows.append((method, path, body, status, expected))
    return rows


#: ``(method, path, body) → (status, expected)``: a path no route
#: serves is a 404 under every method, and one that a route serves
#: under another method is a 405. ``expected`` is the full payload,
#: an error string (``{"ok": false, "error": …}``), or ``None`` for a
#: body that snapshots live state (status only).
ROUTE_SURFACE = [
    *_sweep("/cas", (200, {"ok": True, "cas": {"served": 0},
                           "remote": None}), 405),
    *_sweep("/cas/", 404, 404, 404, 404),
    *[row for path in ("/check", "/compile", "/estimate", "/interp",
                       "/rtl")
      for row in _sweep(path, 405, (400, NO_SOURCE))],
    *_sweep("/dse", 405, (400, 'request must carry a string "space" '
                               'field')),
    *[row for path in ("/healthz", "/metrics", "/stages", "/trace")
      for row in _sweep(path, (200, None), 405)],
    *_sweep("/jobs", (200, {"ok": True, "count": 0, "jobs": []}), 405),
    *_sweep("/jobs/", 404, 404, 404, 404),
    *_sweep("/session", 405, (400, NO_SOURCE),
            (405, "method DELETE not allowed (close a session by id: "
                  "DELETE /session/{id})")),
    *_sweep("/session/", 404, 404, 404, 404),
    *_sweep("/session/a/b", 405,
            (404, {"ok": False, "error": "no such session 'a/b' (never "
                   "opened, expired, or evicted)", "session": "a/b"}),
            (404, {"ok": False, "error": "no such session 'a/b'",
                   "session": "a/b"})),
    *_sweep("/nope", 404, 404, 404, 404),
    *_sweep("/check/x", 404, 404, 404, 404),
    *_sweep("/jobs/a/b", 404, 405),
    *_sweep("/jobs/unknown/stream", (404, "no such job 'unknown'"), 405),
    *_sweep("/jobs/stream", (404, "no such job 'stream'"), 405),
    *_sweep("/jobs//stream", 404, 405),
    *_sweep("/jobs/a/b/stream", 404, 405),
    *_sweep("/cas/zzz", 404, 405),
    *_sweep(CAS_KEY, (400, 'query parameter "stage" is required'), 405),
    ("GET", CAS_KEY + "?stage=check", None, 404,
     "no artifact check:000000000000"),
    ("GET", CAS_KEY + "?stage=../x", None, 404,
     "no artifact ../x:000000000000"),
    ("GET", "/jobs?limit=many", None, 400,
     "malformed limit (expected an integer)"),
    ("GET", "/trace?format=pdf", None, 400,
     "unknown trace format 'pdf' (choose json or chrome)"),
    ("GET", "/trace?limit=many", None, 400,
     "malformed limit (expected an integer)"),
    ("GET", "/trace?id=missing", None, 404,
     "no trace 'missing' (it may have aged out, or the request was not "
     "sampled)"),
    ("PATCH", "/check", None, 405, "method PATCH not allowed"),
    ("PATCH", "/session", None, 405, "method PATCH not allowed"),
    ("POST", "/check?x=1", b"{}", 400, NO_SOURCE),
    ("POST", "/check", b"{nope", 400, NO_JSON),
    ("POST", "/check", b"[1]", 400, "request body must be a JSON object"),
    ("POST", "/check", b'{"source": 5}', 400, NO_SOURCE),
    ("POST", "/session", b"{nope", 400, NO_JSON),
    ("POST", "/session/x", b"{}", 404,
     {"ok": False, "error": "no such session 'x' (never opened, expired, "
      "or evicted)", "session": "x"}),
    ("DELETE", "/session/x", None, 404,
     {"ok": False, "error": "no such session 'x'", "session": "x"}),
    ("POST", "/dse", b"{nope", 400, NO_JSON),
    ("POST", "/dse", b"[1]", 400, "request body must be a JSON object"),
    ("POST", "/dse", b'{"space": "stencil2d", "stream": true}', 400,
     '"stream": true requires "mode": "frontier"'),
    ("POST", "/dse", STREAM_ASYNC, 400,
     '"stream" and "async" are exclusive (tail an async job via GET '
     '/jobs/{id}/stream)'),
    ("POST", "/dse",
     b'{"space": "warp-drive", "mode": "frontier", "stream": true}', 400,
     "unknown DSE space 'warp-drive' (choose from: gemm-blocked, md-grid, "
     "md-knn, stencil2d)"),
    ("POST", "/dse", STREAM_BAD_SAMPLE, 400,
     "malformed dse request: invalid literal for int() with base 10: "
     "'many'"),
    ("POST", "/dse", b'{"space": "stencil2d", "mode": "sideways"}', 400,
     "unknown dse mode 'sideways' (choose from: exhaustive, frontier)"),
    ("POST", "/dse", b'{"space": "stencil2d", "budget": 3}', 400,
     '"budget" requires "mode": "frontier"'),
]


def test_route_surface_is_pinned_request_by_request():
    """Every route under GET, POST, DELETE and PUT, plus the odd paths
    and malformed bodies, answers the status and bytes pinned above."""
    import http.client

    with BackgroundServer(DahliaService()) as fresh:
        for method, path, body, status, expected in ROUTE_SURFACE:
            connection = http.client.HTTPConnection(
                "127.0.0.1", fresh.port, timeout=30)
            try:
                connection.request(method, path, body=body)
                response = connection.getresponse()
                served = response.read()
            finally:
                connection.close()
            where = f"{method} {path} {body!r}"
            assert response.status == status, where
            if isinstance(expected, str):
                expected = {"ok": False, "error": expected}
            if expected is not None:
                assert served == encode_payload(expected), where
