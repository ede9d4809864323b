"""Conformance tests for the stateful ``/session`` edit protocol.

Run against a real :class:`BackgroundServer` (full HTTP layer, not the
dispatcher) and, at the end, a 2-worker prefork fleet:

* versioned deltas advance the document and every response carries a
  fresh check verdict with segment-reuse accounting;
* a stale version is rejected with a structured 409 and the session is
  left untouched;
* a retried request (same ``X-Request-Id``, same version) replays the
  original response byte-for-byte instead of double-applying;
* idle sessions expire after the TTL and closed/unknown sessions
  answer 404 with a structured body;
* parity: the final session verdict is byte-identical to a one-shot
  ``POST /check`` of the final text — including when edits round-robin
  across fleet workers that coordinate only through the session spool.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.service import (
    BackgroundServer,
    DahliaService,
    ServiceClient,
    ServiceError,
    encode_payload,
)

GOOD = """\
decl A: float[8 bank 2];
def warm(m: float[8 bank 2]) {
  for (let i = 0..8) unroll 2 {
    m[i] := 1.0;
  }
}
warm(A);
"""

BROKEN_EDIT = {"start": 0, "end": 0, "text": "@"}


def raw_session_request(port: int, method: str, path: str,
                        payload: dict | None,
                        request_id: str) -> tuple[int, bytes]:
    """One HTTP exchange with an explicit ``X-Request-Id``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json",
                                    "X-Request-Id": request_id})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(DahliaService(capacity=1024)) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


def edited(text: str, edit: dict) -> str:
    return text[:edit["start"]] + edit["text"] + text[edit["end"]:]


def test_session_reparses_what_the_document_reparses():
    """A single-def edit re-parses at most two segments (the def, plus
    the body tile beside it) even when the def holds nested loops and
    its own ``---``, and a session's ``reparsed`` equals what the same
    edit costs a standalone document."""
    from repro.frontend.incremental import IncrementalDocument
    from repro.service.pipeline import CompilerPipeline
    from repro.service.session import SessionManager
    from repro.util import telemetry

    text = "".join(f"def stage{k}(x: float, out: float[4 bank 2]) {{\n"
                   f"  let acc: float[4 bank 2][4 bank 2];\n"
                   f"  for (let i = 0..4) unroll 2 {{\n"
                   f"    for (let j = 0..4) unroll 2 {{\n"
                   f"      acc[i][j] := x * {k + 1}.0;\n    }}\n  }}\n"
                   f"  ---\n  out[{k}] := x + {k}.0;\n}}\n"
                   for k in range(4)) + "decl O: float[4 bank 2];\n" \
        + "\n---\n".join(f"stage{k}(1.0, O)" for k in range(4)) + "\n"
    document = IncrementalDocument(text)
    manager = SessionManager(CompilerPipeline())
    status, opened = manager.open({"source": text, "session": "s"},
                                  telemetry.new_id())
    assert status == 200 and opened["check"]["ok"], opened
    for index in range(8):
        anchor = document.text.index(f"def stage{index % 4}(")
        start = document.text.index("x * ", anchor) + len("x * ")
        edit = {"start": start, "end": document.text.index(";", start),
                "text": f"{500.5 + index}"}
        stats = document.apply_edits([dict(edit)])
        status, payload = manager.edit(
            "s", {"version": index + 1, "edits": [dict(edit)]},
            telemetry.new_id())
        assert status == 200 and payload["check"]["ok"], payload
        assert stats["parsed"] <= 2, stats
        assert payload["reparsed"] == stats["parsed"]
    manager.close("s")


def test_open_edit_close_round_trip(client):
    opened = client.session_open(GOOD, session="round-trip")
    assert opened["ok"] and opened["version"] == 0
    assert opened["check"]["ok"]
    assert opened["segments"] == opened["reparsed"]

    at = GOOD.index("1.0")
    edit = {"start": at, "end": at + 3, "text": "2.0"}
    response = client.session_edit("round-trip", 1, edits=[edit])
    assert response["version"] == 1
    assert response["check"]["ok"]
    assert response["reparsed"] == 1, response
    assert response["reused"] + response["relocated"] \
        == response["segments"] - 1

    closed = client.session_close("round-trip")
    assert closed == {"ok": True, "session": "round-trip",
                      "closed": True, "version": 1, "edits": 1}
    with pytest.raises(ServiceError) as failure:
        client.session_edit("round-trip", 2, edits=[edit])
    assert failure.value.status == 404


def test_final_session_verdict_matches_one_shot_check(client):
    client.session_open(GOOD, session="parity")
    text = GOOD
    edits = [
        {"start": GOOD.index("1.0"), "end": GOOD.index("1.0") + 3,
         "text": "7.5"},
        {"start": 0, "end": 0, "text": "decl B: float[4];\n"},
        {"start": 0, "end": 0, "text": "// prelude\n"},
    ]
    payload = None
    for version, edit in enumerate(edits, start=1):
        payload = client.session_edit("parity", version, edits=[edit])
        text = edited(text, edit)
    status, body = client.raw("POST", "/check", {"source": text})
    assert status == 200
    assert encode_payload(payload["check"]) == body, \
        "session verdict drifted from the one-shot /check payload"
    client.session_close("parity")


def test_stale_version_is_rejected_structurally(client):
    client.session_open(GOOD, session="stale")
    client.session_edit("stale", 1, edits=[{"start": 0, "end": 0,
                                            "text": "// a\n"}])
    with pytest.raises(ServiceError) as failure:
        client.session_edit("stale", 1, edits=[{"start": 0, "end": 0,
                                                "text": "// b\n"}])
    assert failure.value.status == 409
    payload = failure.value.payload
    assert payload["stale_version"] is True
    assert payload["expected"] == 2 and payload["got"] == 1
    assert payload["session"] == "stale"
    # The rejected delta must not have touched the document.
    response = client.session_edit("stale", 2, edits=[])
    assert response["version"] == 2
    client.session_close("stale")


def test_out_of_order_and_overlapping_edits(client):
    client.session_open(GOOD, session="order")
    with pytest.raises(ServiceError) as ahead:
        client.session_edit("order", 5, edits=[])
    assert ahead.value.status == 409
    assert ahead.value.payload["expected"] == 1

    # Two clients race the same version with different request ids:
    # exactly one wins; the loser gets the structured conflict.
    response = client.session_edit("order", 1, edits=[])
    assert response["version"] == 1
    with pytest.raises(ServiceError) as loser:
        client.session_edit("order", 1, edits=[])
    assert loser.value.status == 409
    client.session_close("order")


def test_retried_request_replays_instead_of_reapplying(server, client):
    client.session_open(GOOD, session="retry")
    edit = {"start": 0, "end": 0, "text": "// retried\n"}
    request = {"version": 1, "edits": [edit]}
    first = raw_session_request(server.port, "POST", "/session/retry",
                                request, request_id="retry-rid-1")
    second = raw_session_request(server.port, "POST", "/session/retry",
                                 request, request_id="retry-rid-1")
    assert first[0] == second[0] == 200
    assert first[1] == second[1], \
        "a retried delta must replay the original response byte-for-byte"
    # The edit was applied once: the next version is 2, and a *different*
    # request id at the same version is a real conflict, not a retry.
    status, body = raw_session_request(server.port, "POST",
                                       "/session/retry", request,
                                       request_id="retry-rid-2")
    assert status == 409
    assert json.loads(body)["expected"] == 2
    client.session_close("retry")


def test_open_is_idempotent_for_the_same_text(client):
    first = client.session_open(GOOD, session="reopen")
    again = client.session_open(GOOD, session="reopen")
    assert first == again
    with pytest.raises(ServiceError) as conflict:
        client.session_open(GOOD + "// drift\n", session="reopen")
    assert conflict.value.status == 409
    client.session_close("reopen")


def test_unknown_session_and_bad_requests(client):
    with pytest.raises(ServiceError) as missing:
        client.session_edit("never-opened", 1, edits=[])
    assert missing.value.status == 404
    assert missing.value.payload["session"] == "never-opened"
    with pytest.raises(ServiceError) as missing_close:
        client.session_close("never-opened")
    assert missing_close.value.status == 404

    with pytest.raises(ServiceError) as bad_id:
        client.session_open(GOOD, session="bad id with spaces")
    assert bad_id.value.status == 400
    with pytest.raises(ServiceError) as bad_source:
        client.request("POST", "/session", {"source": 42})
    assert bad_source.value.status == 400

    client.session_open(GOOD, session="bad-edits")
    for request in ({"version": "one", "edits": []},
                    {"version": 1},
                    {"version": 1, "edits": [{"start": -1, "end": 0,
                                              "text": ""}]},
                    {"version": 1, "edits": [{"start": 0, "end": 10 ** 9,
                                              "text": ""}]}):
        with pytest.raises(ServiceError) as bad:
            client.request("POST", "/session/bad-edits", request)
        assert bad.value.status == 400, request
    client.session_close("bad-edits")


def test_broken_edit_serves_stale_but_marked_verdict(client):
    opened = client.session_open(GOOD, session="stale-verdict")
    assert opened["check"]["ok"]
    response = client.session_edit("stale-verdict", 1,
                                   edits=[BROKEN_EDIT])
    assert not response["check"]["ok"]
    assert response["diagnostics"], "diagnostics must flow for the break"
    stale = response["stale"]
    assert stale["version"] == 0 and stale["check"]["ok"], \
        "the last clean verdict must be served alongside the failure"
    assert stale["broken"], "the stale marker must name broken segments"
    # Fixing the break clears the marker.
    fixed = client.session_edit("stale-verdict", 2,
                                edits=[{"start": 0, "end": 1, "text": ""}])
    assert fixed["check"]["ok"] and "stale" not in fixed
    client.session_close("stale-verdict")


def test_ttl_eviction_expires_idle_sessions():
    service = DahliaService(capacity=64, session_ttl=0.15)
    with BackgroundServer(service) as background:
        short = ServiceClient(port=background.port)
        short.session_open(GOOD, session="ttl")
        time.sleep(0.4)
        with pytest.raises(ServiceError) as expired:
            short.session_edit("ttl", 1, edits=[])
        assert expired.value.status == 404


def test_lru_eviction_bounds_open_sessions():
    service = DahliaService(capacity=64, max_sessions=2)
    with BackgroundServer(service) as background:
        small = ServiceClient(port=background.port)
        for name in ("lru-a", "lru-b", "lru-c"):
            small.session_open(GOOD, session=name)
        with pytest.raises(ServiceError) as evicted:
            small.session_edit("lru-a", 1, edits=[])
        assert evicted.value.status == 404
        assert small.session_edit("lru-c", 1, edits=[])["version"] == 1


def test_sessions_surface_in_metrics(client):
    client.session_open(GOOD, session="metrics-probe")
    client.session_edit("metrics-probe", 1, edits=[])
    sessions = client.metrics()["sessions"]
    assert sessions["opened"] >= 1
    assert sessions["edits"] >= 1
    assert sessions["segments"]["reparsed"] >= 1
    client.session_close("metrics-probe")
    assert client.metrics()["sessions"]["closed"] >= 1


def test_session_spans_attribute_segment_reuse(client):
    """A traced edit carries a ``stage:session_edit`` span whose
    attributes account for every segment: reparsed vs reused."""
    client.session_open(GOOD, session="traced")
    payload = client.session_edit(
        "traced", 1,
        edits=[{"start": GOOD.index("1.0"),
                "end": GOOD.index("1.0") + 3, "text": "4.5"}])
    assert payload["ok"]
    trace = client.trace(client.last_request_id)["trace"]
    spans = {span["name"]: span for span in trace["spans"]}
    assert "POST /session/{id}" in spans or any(
        name.startswith("POST /session") for name in spans)
    span = spans["stage:session_edit"]
    attrs = span["attrs"]
    assert attrs["session"] == "traced"
    assert attrs["status"] == 200
    assert attrs["version"] == 1
    assert attrs["reparsed"] == payload["reparsed"]
    assert attrs["reused"] == payload["reused"]
    assert attrs["reparsed"] + attrs["reused"] \
        + attrs["relocated"] == attrs["segments"]
    client.session_close("traced")

    opened = client.session_open(GOOD, session="traced")
    assert opened["ok"]
    trace = client.trace(client.last_request_id)["trace"]
    open_span = next(span for span in trace["spans"]
                     if span["name"] == "stage:session_open")
    assert open_span["attrs"]["segments"] == opened["segments"]
    client.session_close("traced")


# ---------------------------------------------------------------------------
# 2-worker fleet: sessions must survive round-robin routing, with the
# spool as the only cross-process coordination.
# ---------------------------------------------------------------------------

def test_session_protocol_across_a_worker_fleet(tmp_path):
    from tests.test_service_workers import (
        spawn_server,
        stop_server,
        wait_for_fleet,
    )

    process, fleet_client = spawn_server(str(tmp_path / "cache"), workers=2)
    try:
        wait_for_fleet(fleet_client, workers=2)
        opened = fleet_client.session_open(GOOD, session="fleet")
        assert opened["check"]["ok"]

        text = GOOD
        payload = opened
        # Enough sequential edits that both workers serve some of them.
        for version in range(1, 9):
            edit = {"start": 0, "end": 0, "text": f"// edit {version}\n"}
            payload = fleet_client.session_edit("fleet", version,
                                                edits=[edit])
            assert payload["version"] == version
            text = edited(text, edit)

        # Stale rejection must hold on whichever worker answers.
        with pytest.raises(ServiceError) as stale:
            fleet_client.session_edit("fleet", 3, edits=[])
        assert stale.value.status == 409
        assert stale.value.payload["expected"] == 9

        # Parity: the fleet's final session verdict is byte-identical
        # to a one-shot /check of the final text.
        status, body = fleet_client.raw("POST", "/check",
                                        {"source": text})
        assert status == 200
        assert encode_payload(payload["check"]) == body

        closed = fleet_client.session_close("fleet")
        assert closed["closed"] is True
        with pytest.raises(ServiceError) as gone:
            fleet_client.session_edit("fleet", 9, edits=[])
        assert gone.value.status == 404

        sessions = fleet_client.metrics()["sessions"]
        assert sessions["opened"] >= 1 and sessions["edits"] >= 8
    finally:
        stop_server(process)
