"""Stdlib client for the compiler service.

One method per endpoint, returning the decoded JSON payload. By
default the client keeps one persistent keep-alive connection **per
thread** (``keep_alive=True``), so a single :class:`ServiceClient`
may be shared freely across threads — the concurrent stress tests
hammer one instance from a pool — while each thread amortizes its TCP
handshake across requests. A request that finds its thread's cached
socket gone stale (the server closed an idle keep-alive connection)
is transparently re-sent once on a fresh socket; since every
documented route is idempotent this is safe. ``keep_alive=False``
restores the one-connection-per-request behavior, and
:attr:`ServiceClient.connections_opened` counts actual sockets opened
so benchmarks can report the reuse ratio.

With ``retries > 0`` the client absorbs transient failure: connection
errors (a worker died, the supervisor is respawning) and retryable
statuses (429 shed, 503 deadline/unavailable) back off exponentially
with jitter and try again, honoring a ``Retry-After`` header as the
floor for the wait. Retries apply only to idempotent routes — which
for this service is every documented route, since compilation is a
pure function of the request body — and the whole retry loop is
capped by ``total_deadline_s`` so a dead service fails promptly.

Every logical request carries an ``X-Request-Id`` header — one id
generated per :meth:`ServiceClient.raw` call and reused verbatim
across its retries, so the server-side trace for a shed-then-retried
request is a single trace. The id of the most recent call is kept in
:attr:`ServiceClient.last_request_id` for correlation with ``/trace``
and the server's slow-request log, and is included in
:class:`ServiceError` messages and retry-deadline errors.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import random
import threading
import time
from typing import Any, Iterator, Mapping

from ..util import telemetry

logger = logging.getLogger(__name__)

#: Statuses worth retrying: admission-control shed and unavailable.
RETRYABLE_STATUSES = frozenset({429, 503})


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: Any,
                 request_id: str | None = None) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        message = message or f"service returned HTTP {status}"
        if request_id:
            message = f"{message} [request {request_id}]"
        super().__init__(message)
        self.status = status
        self.payload = payload
        self.request_id = request_id


class ServiceClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout: float = 60.0, *, retries: int = 0,
                 backoff_s: float = 0.05, backoff_max_s: float = 2.0,
                 total_deadline_s: float | None = None,
                 retry_seed: int | None = None,
                 keep_alive: bool = True) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.total_deadline_s = total_deadline_s
        self.keep_alive = keep_alive
        self._rng = random.Random(retry_seed)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.retries_used = 0
        #: Sockets actually opened (across all threads); with
        #: keep-alive on, ``requests - connections_opened`` is reuse.
        self.connections_opened = 0
        #: ``X-Request-Id`` of the most recent :meth:`raw` call.
        self.last_request_id: str | None = None

    @classmethod
    def from_address(cls, address: str,
                     timeout: float = 60.0) -> "ServiceClient":
        """Parse ``HOST:PORT`` (an ``http://`` prefix is tolerated)."""
        stripped = address.strip()
        for prefix in ("http://", "https://"):
            if stripped.startswith(prefix):
                stripped = stripped[len(prefix):]
        stripped = stripped.rstrip("/")
        host, _, port = stripped.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"expected HOST:PORT server address, got {address!r}")
        return cls(host=host, port=int(port), timeout=timeout)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- wire protocol -------------------------------------------------------

    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's cached connection; ``(conn, was_reused)``."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection, True
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        with self._lock:
            self.connections_opened += 1
        if self.keep_alive:
            self._local.connection = connection
        return connection, False

    def _discard_connection(
            self, connection: http.client.HTTPConnection) -> None:
        connection.close()
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None

    def close(self) -> None:
        """Close the **calling thread's** cached keep-alive connection.

        Other threads' connections are untouched (they are owned by
        their threads); an unclosed connection is reclaimed when its
        socket is garbage-collected or the server expires it.
        """
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._discard_connection(connection)

    def last_response_headers(self) -> dict[str, str]:
        """Headers of the calling thread's most recent response."""
        return dict(getattr(self._local, "response_headers", None) or {})

    def _exchange(self, method: str, path: str,
                  payload: Mapping[str, Any] | bytes | None,
                  request_id: str,
                  ) -> tuple[int, bytes, float | None]:
        """One attempt: ``(status, body, Retry-After seconds or None)``.

        A ``bytes`` payload is sent verbatim as an octet stream; a
        mapping is JSON-encoded. When the thread's reused keep-alive
        socket turns out stale, the request is re-sent once on a fresh
        socket before any error escapes.
        """
        if isinstance(payload, (bytes, bytearray)):
            body: bytes | None = bytes(payload)
            content_type = "application/octet-stream"
        elif payload is not None:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        else:
            body = None
            content_type = "application/json"
        headers = {"Content-Type": content_type,
                   "X-Request-Id": request_id}
        while True:
            connection, reused = self._connection()
            try:
                connection.request(method, path, body=body,
                                   headers=headers)
                response = connection.getresponse()
                retry_after = response.getheader("Retry-After")
                try:
                    hint = float(retry_after) if retry_after else None
                except ValueError:
                    hint = None
                data = response.read()
                self._local.response_headers = {
                    key: value for key, value in response.getheaders()}
            except (OSError, http.client.HTTPException):
                self._discard_connection(connection)
                if reused:
                    # Stale keep-alive socket: the server closed it
                    # while idle. Retry once on a fresh connection.
                    continue
                raise
            if not self.keep_alive or response.will_close:
                self._discard_connection(connection)
            return response.status, data, hint

    def _backoff(self, attempt: int, hint: float | None) -> float:
        """Exponential backoff with jitter; ``Retry-After`` is a floor."""
        base = min(self.backoff_max_s, self.backoff_s * (2 ** attempt))
        with self._lock:
            delay = base * (0.5 + self._rng.random() / 2.0)
        return max(delay, hint or 0.0)

    def raw(self, method: str, path: str,
            payload: Mapping[str, Any] | bytes | None = None,
            ) -> tuple[int, bytes]:
        """One request; returns ``(status, body bytes)`` unparsed.

        The byte-parity tests go through this to compare the exact
        bytes on the wire against a direct library call. With
        ``retries > 0``, connection errors and retryable statuses are
        re-attempted with backoff; the bytes returned are always from
        a single (the final) response. One ``X-Request-Id`` is minted
        per call and reused across its retries.
        """
        request_id = telemetry.current_trace_id() or telemetry.new_id()
        self.last_request_id = request_id
        give_up_at = (time.monotonic() + self.total_deadline_s
                      if self.total_deadline_s is not None else None)
        attempt = 0
        while True:
            try:
                status, body, hint = self._exchange(
                    method, path, payload, request_id)
            except OSError as exc:
                if attempt >= self.retries:
                    raise type(exc)(
                        f"{exc} [request {request_id}]") from exc
                status, body, hint = None, b"", None
            if status is not None and (
                    status not in RETRYABLE_STATUSES
                    or attempt >= self.retries):
                return status, body
            delay = self._backoff(attempt, hint)
            if give_up_at is not None \
                    and time.monotonic() + delay > give_up_at:
                if status is not None:
                    return status, body
                raise OSError(
                    f"no response from {self.address} within the "
                    f"{self.total_deadline_s:g}s retry deadline "
                    f"[request {request_id}]")
            logger.warning(
                "retrying %s %s after %s (attempt %d/%d) [request %s]",
                method, path,
                f"HTTP {status}" if status is not None
                else "connection error",
                attempt + 1, self.retries, request_id)
            time.sleep(delay)
            with self._lock:
                self.retries_used += 1
            attempt += 1

    def request(self, method: str, path: str,
                payload: Mapping[str, Any] | bytes | None = None) -> dict:
        status, body = self.raw(method, path, payload)
        decoded = json.loads(body.decode())
        if status != 200:
            raise ServiceError(status, decoded,
                               request_id=self.last_request_id)
        return decoded

    def wait_ready(self, timeout: float = 30.0,
                   interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the server answers (or raise).

        Spawning ``serve`` as a subprocess (the multi-process tests and
        benchmarks do) races the first request against worker startup;
        this absorbs the race.
        """
        import time

        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ServiceError, ValueError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def stages(self) -> dict:
        return self.request("GET", "/stages")

    def check(self, source: str) -> dict:
        return self.request("POST", "/check", {"source": source})

    def estimate(self, source: str) -> dict:
        return self.request("POST", "/estimate", {"source": source})

    def compile(self, source: str, *, erase: bool = False,
                kernel_name: str = "kernel") -> dict:
        return self.request("POST", "/compile", {
            "source": source, "erase": erase, "kernel_name": kernel_name})

    def rtl(self, source: str, *, module_name: str = "main") -> dict:
        return self.request("POST", "/rtl", {
            "source": source, "module_name": module_name})

    def interp(self, source: str, *, check: bool = True) -> dict:
        return self.request("POST", "/interp", {
            "source": source, "check": check})

    def trace(self, trace_id: str | None = None, *,
              limit: int | None = None,
              format: str | None = None) -> dict:
        """Fetch one trace (by id) or list recent trace summaries.

        ``format="chrome"`` returns the Chrome trace-event export for
        loading into Perfetto / ``chrome://tracing``.
        """
        params = []
        if trace_id is not None:
            params.append(f"id={trace_id}")
        if limit is not None:
            params.append(f"limit={int(limit)}")
        if format is not None:
            params.append(f"format={format}")
        query = "&".join(params)
        return self.request("GET", "/trace" + (f"?{query}" if query else ""))

    def session_open(self, source: str, *,
                     session: str | None = None) -> dict:
        """Open an edit session; returns the opening check verdict.

        Without ``session`` the server mints an id (returned in the
        payload); passing one makes the open idempotent — re-opening
        the same id with the same text replays the original response,
        so a retried open cannot half-duplicate a session.
        """
        payload: dict[str, Any] = {"source": source}
        if session is not None:
            payload["session"] = session
        return self.request("POST", "/session", payload)

    def session_edit(self, session: str, version: int, *,
                     edits: list[dict] | None = None,
                     source: str | None = None) -> dict:
        """Apply one versioned delta (or a full-text ``source`` swap).

        ``version`` must be the session's current version + 1; a stale
        value raises :class:`ServiceError` with status 409 and a
        ``stale_version`` payload carrying the expected version.
        """
        payload: dict[str, Any] = {"version": version}
        if edits is not None:
            payload["edits"] = edits
        if source is not None:
            payload["source"] = source
        return self.request("POST", f"/session/{session}", payload)

    def session_close(self, session: str) -> dict:
        return self.request("DELETE", f"/session/{session}")

    @staticmethod
    def _dse_payload(space: str, sample: int, memoize: bool,
                     workers: int | None, mode: str | None,
                     budget: int | None, batch_size: int | None,
                     sample_seed: int | None) -> dict[str, Any]:
        payload: dict[str, Any] = {"space": space, "sample": sample,
                                   "memoize": memoize}
        if workers is not None:
            payload["workers"] = workers
        if mode is not None:
            payload["mode"] = mode
        if budget is not None:
            payload["budget"] = budget
        if batch_size is not None:
            payload["batch_size"] = batch_size
        if sample_seed is not None:
            payload["sample_seed"] = sample_seed
        return payload

    def dse(self, space: str, *, sample: int = 500,
            workers: int | None = None, memoize: bool = True,
            mode: str | None = None, budget: int | None = None,
            batch_size: int | None = None,
            sample_seed: int | None = None) -> dict:
        payload = self._dse_payload(space, sample, memoize, workers,
                                    mode, budget, batch_size,
                                    sample_seed)
        return self.request("POST", "/dse", payload)

    def dse_submit(self, space: str, *, sample: int = 500,
                   workers: int | None = None, memoize: bool = True,
                   mode: str | None = None, budget: int | None = None,
                   batch_size: int | None = None,
                   sample_seed: int | None = None) -> dict:
        """Submit a sweep as an async job (``"async": true``).

        Returns immediately with the job record — ``job`` (the
        deterministic id derived from the parameters), ``state`` and
        ``coalesced`` (whether an identical live job absorbed this
        submission). Poll with :meth:`job` or tail with
        :meth:`job_stream`.
        """
        payload = self._dse_payload(space, sample, memoize, workers,
                                    mode, budget, batch_size,
                                    sample_seed)
        payload["async"] = True
        return self.request("POST", "/dse", payload)

    def job(self, job_id: str) -> dict:
        """Fetch one async job's current record."""
        return self.request("GET", f"/jobs/{job_id}")

    def jobs(self, limit: int | None = None) -> dict:
        """List recent async jobs, newest first."""
        query = f"?limit={int(limit)}" if limit is not None else ""
        return self.request("GET", "/jobs" + query)

    def job_wait(self, job_id: str, *, timeout: float = 60.0,
                 interval: float = 0.05) -> dict:
        """Poll :meth:`job` until the job reaches a terminal state."""
        give_up_at = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.get("state") in ("done", "error"):
                return record
            if time.monotonic() >= give_up_at:
                raise TimeoutError(
                    f"job {job_id} still {record.get('state')!r} after "
                    f"{timeout:g}s")
            time.sleep(interval)

    def job_stream(self, job_id: str) -> Iterator[dict]:
        """Tail an async job's NDJSON stream; yields event dicts.

        Yields ``frontier`` events from wherever the job currently is
        (the stream replays versions this client has not seen — it is
        resumable across connections), then the terminal ``result``
        event. Raises :class:`ServiceError` on a non-200 response or
        an in-stream ``error`` event. A dedicated connection is used;
        the thread's keep-alive connection is untouched.
        """
        request_id = telemetry.current_trace_id() or telemetry.new_id()
        self.last_request_id = request_id
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(
                "GET", f"/jobs/{job_id}/stream",
                headers={"X-Request-Id": request_id})
            response = connection.getresponse()
            if response.status != 200:
                decoded = json.loads(response.read().decode())
                raise ServiceError(response.status, decoded,
                                   request_id=request_id)
            for line in response:
                if not line.strip():
                    continue
                event = json.loads(line.decode())
                if event.get("type") == "error":
                    raise ServiceError(int(event.get("status", 500)),
                                       event.get("payload"),
                                       request_id=request_id)
                yield event
        finally:
            connection.close()

    # -- remote CAS ----------------------------------------------------------

    def cas_get(self, stage: str, digest: str, *,
                verify: bool = True) -> bytes | None:
        """Fetch one artifact blob from the server's CAS, or ``None``.

        With ``verify`` (the default) the body is re-hashed against
        the ``X-CAS-Sha256`` response header; a mismatch — a corrupt
        or truncated transfer — raises :class:`ServiceError` rather
        than returning bad bytes.
        """
        status, body = self.raw("GET", f"/cas/{digest}?stage={stage}")
        if status == 404:
            return None
        if status != 200:
            try:
                decoded: Any = json.loads(body.decode())
            except ValueError:
                decoded = {"error": body.decode(errors="replace")}
            raise ServiceError(status, decoded,
                               request_id=self.last_request_id)
        if verify:
            expected = self.last_response_headers().get("X-CAS-Sha256")
            if expected and \
                    hashlib.sha256(body).hexdigest() != expected:
                raise ServiceError(
                    502, {"error": f"cas blob {digest} failed its "
                                   f"checksum in transit"},
                    request_id=self.last_request_id)
        return body

    def cas_stats(self) -> dict:
        """The server's CAS counters (``GET /cas``)."""
        return self.request("GET", "/cas")

    def dse_stream(self, space: str, *, sample: int = 500,
                   workers: int | None = None, memoize: bool = True,
                   budget: int | None = None,
                   batch_size: int | None = None,
                   sample_seed: int | None = None):
        """Stream a frontier-mode ``/dse`` query; yields event dicts.

        Yields every ``{"type": "frontier", ...}`` update line as the
        server's skyline version advances, then the ``{"type":
        "result", ...}`` event whose payload equals the buffered
        response. Raises :class:`ServiceError` on a non-200 response
        or an in-stream ``error`` event. No retries: a stream is not
        idempotent once updates have been consumed, so resilience
        policy belongs to the caller.
        """
        payload = self._dse_payload(space, sample, memoize, workers,
                                    "frontier", budget, batch_size,
                                    sample_seed)
        payload["stream"] = True
        request_id = telemetry.current_trace_id() or telemetry.new_id()
        self.last_request_id = request_id
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(
                "POST", "/dse", body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json",
                         "X-Request-Id": request_id})
            response = connection.getresponse()
            if response.status != 200:
                decoded = json.loads(response.read().decode())
                raise ServiceError(response.status, decoded,
                                   request_id=request_id)
            # http.client decodes Transfer-Encoding: chunked
            # transparently; iterating the response yields the NDJSON
            # lines as they arrive.
            for line in response:
                if not line.strip():
                    continue
                event = json.loads(line.decode())
                if event.get("type") == "error":
                    raise ServiceError(int(event.get("status", 500)),
                                       event.get("payload"),
                                       request_id=request_id)
                yield event
        finally:
            connection.close()
