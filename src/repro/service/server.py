"""The compiler service's routes: one table from request to handler.

:data:`ROUTES` maps each ``(method, path pattern)`` to the
:class:`DahliaService` method answering it (docs/http-api.md documents
every route). Every request, buffered or streamed, leaves through one
outcome path: the root span, the chaos sites, one exception → status
mapping and one metrics row. HTTP framing, admission and deadlines
live in :mod:`repro.service.transport`; ``serve`` and the prefork
fleet in :mod:`repro.service.fleet`.

Parity contract: the response body for a POST endpoint is exactly
``encode_payload(service.respond(endpoint, request))`` — the same
payload a direct library call through the
:class:`~repro.service.pipeline.CompilerPipeline` produces, byte for
byte. The test-suite enforces this.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..util import telemetry
from ..util.deadline import DeadlineExceeded
from ..util.faults import fault_point, fault_stats
from ..util.spool import Spool
from .artifacts import DEFAULT_DISK_BYTES, ArtifactKey
from .jobs import JobManager, job_id_for
from .session import (
    DEFAULT_SESSION_CAPACITY,
    DEFAULT_SESSION_TTL_S,
    SessionManager,
)
from .pipeline import (
    STAGES,
    CompilerPipeline,
    dse_frontier_summary,
    dse_summary,
    relevant_options,
)

if TYPE_CHECKING:
    from .fleet import WorkerBoard

logger = logging.getLogger(__name__)

#: Option keys each POST endpoint forwards to its payload stage —
#: derived from the stage declarations so the filter cannot drift from
#: the pipeline's cache-key contract.
ENDPOINT_OPTIONS: dict[str, tuple[str, ...]] = {
    name: relevant_options(f"{name}_payload")
    for name in ("check", "estimate", "compile", "rtl", "interp")
}

#: The route table: ``(method, path pattern)`` → ``(handler, streaming
#: handler)`` as :class:`DahliaService` method names; the transport
#: streams when the request asks to (:meth:`Call.streamer`). A
#: ``{name}`` matches a non-empty run of the path: the rest of it when
#: it ends the pattern, else one segment. Exact paths resolve with one
#: dict lookup; patterns are tried in table order.
ROUTES: dict[tuple[str, str], tuple[str, str | None]] = {
    **{("POST", f"/{name}"): ("_post_stage", None)
       for name in ENDPOINT_OPTIONS},
    ("POST", "/dse"): ("_post_stage", "_stream_dse"),
    ("GET", "/healthz"): ("_get_health", None),
    ("GET", "/metrics"): ("_get_metrics", None),
    ("GET", "/stages"): ("_get_stages", None),
    ("GET", "/trace"): ("_get_trace", None),
    ("POST", "/session"): ("_post_session", None),
    ("POST", "/session/{id}"): ("_post_session", None),
    ("DELETE", "/session"): ("_delete_session", None),
    ("DELETE", "/session/{id}"): ("_delete_session", None),
    ("GET", "/cas"): ("_get_cas", None),
    ("GET", "/cas/{digest}"): ("_get_cas", None),
    ("GET", "/jobs"): ("_get_jobs", None),
    ("GET", "/jobs/{id}/stream"): ("_get_jobs", "_stream_job"),
    ("GET", "/jobs/{id}"): ("_get_jobs", None),
}

#: Patterned routes as ``(method, head, tail, handlers)``.
_PATTERNS = [(method, pattern.partition("{")[0],
              pattern.partition("}")[2], handlers)
             for (method, pattern), handlers in ROUTES.items()
             if "{" in pattern]

#: Path families: the first segment of every patterned route.
_FAMILIES = frozenset("/" + head.split("/")[1]
                      for _, head, _, _ in _PATTERNS)

#: Routes that get their own row in the metrics table (a family
#: shares one row); anything else is bucketed under one key so
#: unknown-path probes can't grow the table (and the /metrics
#: response) without bound.
KNOWN_PATHS = frozenset("/" + pattern.split("/")[1]
                        for _, pattern in ROUTES)


def _argument(head: str, tail: str, path: str) -> str | None:
    """What ``head{name}tail`` captures of ``path`` (``None``: no match)."""
    if not (path.startswith(head) and path.endswith(tail)):
        return None
    arg = path[len(head):len(path) - len(tail)]
    return arg if arg and not (tail and "/" in arg) else None


def resolve(method: str, path: str,
            ) -> tuple[tuple[str, str | None] | None, str]:
    """``(handlers, path argument)`` of the route taking ``method
    path``, or ``(None, "")`` when no route does."""
    handlers = ROUTES.get((method, path))
    if handlers is not None:
        return handlers, ""
    for route_method, head, tail, handlers in _PATTERNS:
        arg = _argument(head, tail, path) if route_method == method else None
        if arg is not None:
            return handlers, arg
    return None, ""


def metric_path(path: str) -> str:
    """The metrics-table key for ``path``: its family's row, its own
    row for a route, else the shared ``(unknown)`` bucket."""
    head = "/" + path[1:].partition("/")[0]
    if head in _FAMILIES:
        return head
    return path if path in KNOWN_PATHS else "(unknown)"


def _not_found(path: str) -> tuple[int, dict]:
    return 404, {"ok": False, "error": f"no such endpoint {path!r}"}


def _unrouted(call: "Call") -> tuple[int, dict]:
    """405 when a route serves the path under another method, else 404."""
    if not any(resolve(method, call.path)[0]
               for method in {method for method, _ in ROUTES}):
        return _not_found(call.path)
    return 405, {"ok": False, "error": f"method {call.method} not allowed"}


def encode_payload(payload: Any) -> bytes:
    """The service's canonical JSON encoding (stable across callers)."""
    return (json.dumps(payload, indent=2) + "\n").encode()


@dataclass
class RawPayload:
    """A non-JSON response body (the ``/cas`` blob exchange).

    ``DahliaService.handle`` returns one of these instead of a JSON
    payload when the route serves raw bytes; the transport writes the
    body verbatim under ``content_type`` plus any extra ``headers``.
    """

    body: bytes
    content_type: str = "application/octet-stream"
    headers: dict[str, str] | None = None


class BadRequest(Exception):
    """Client error mapped to a 400 response."""


class Call:
    """One request, routed: built once (by :meth:`DahliaService.handle`
    or the transport); the body is JSON-decoded at most once."""

    __slots__ = ("method", "path", "query", "body", "request_id",
                 "route", "arg", "_request")

    def __init__(self, method: str, path: str, body: bytes,
                 request_id: str | None = None) -> None:
        self.path, _, query = path.partition("?")
        self.method = method
        self.body = body
        self.query = urllib.parse.parse_qs(query)
        self.request_id = request_id or telemetry.new_id()
        self.route, self.arg = resolve(method, self.path)
        self._request: dict | BadRequest | None = None

    def json(self) -> dict:
        """The body as a JSON object; :class:`BadRequest` otherwise."""
        if self._request is None:
            try:
                request = json.loads(self.body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                request = BadRequest(f"body is not valid JSON: {error}")
            if not isinstance(request, (dict, BadRequest)):
                request = BadRequest("request body must be a JSON object")
            self._request = request
        if isinstance(self._request, BadRequest):
            raise self._request
        return self._request

    def streamer(self) -> str | None:
        """The streaming handler answering this request, if any.

        A GET on a streaming route always streams; a POST only when
        its body is a well-formed frontier request asking to
        ``stream``. Anything else (a malformed body, ``stream`` without
        frontier mode, or with ``async``) gets the buffered path's
        error surface with real status codes.
        """
        streamer = self.route[1] if self.route else None
        if streamer and self.method != "GET":
            try:
                request = self.json()
            except BadRequest:
                return None
            if not (request.get("stream") and not request.get("async")
                    and request.get("mode") == "frontier"):
                return None
        return streamer


class EndpointMetrics:
    """Per-route latency accounting: counters plus a log-bucketed
    histogram, so fleet aggregation can report true percentiles
    (bucket counts merge by addition across worker snapshots) instead
    of a mean of means. ``as_dict`` keeps the historical keys."""

    __slots__ = ("requests", "errors", "total_ms", "max_ms", "histogram")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self.histogram = telemetry.LatencyHistogram()

    def record(self, elapsed_ms: float, error: bool) -> None:
        self.requests += 1
        self.errors += int(error)
        self.total_ms += elapsed_ms
        self.max_ms = max(self.max_ms, elapsed_ms)
        self.histogram.record(elapsed_ms)

    def as_dict(self) -> dict:
        mean = self.total_ms / self.requests if self.requests else 0.0
        buckets = self.histogram.as_dict()
        return {
            "requests": self.requests,
            "errors": self.errors,
            "total_ms": round(self.total_ms, 3),
            "mean_ms": round(mean, 3),
            "max_ms": round(self.max_ms, 3),
            "p50_ms": telemetry.quantile_from_buckets(buckets, 0.50),
            "p95_ms": telemetry.quantile_from_buckets(buckets, 0.95),
            "p99_ms": telemetry.quantile_from_buckets(buckets, 0.99),
            "buckets": buckets,
        }


class DahliaService:
    """The endpoint logic, independent of any transport.

    ``respond(endpoint, request)`` is the direct library call; the HTTP
    layer serializes exactly what it returns. Instantiating one service
    per process gives all transports (HTTP, CLI ``--server`` relays,
    tests) a shared artifact cache.
    """

    def __init__(self, pipeline: CompilerPipeline | None = None,
                 capacity: int = 512, dse_workers: int | None = 1,
                 cache_dir: str | Path | None = None,
                 cache_bytes: int = DEFAULT_DISK_BYTES,
                 board: WorkerBoard | None = None,
                 trace_sample: float | None = None,
                 slow_request_ms: float | None = None,
                 trace_dir: str | Path | None = None,
                 max_sessions: int = DEFAULT_SESSION_CAPACITY,
                 session_ttl: float = DEFAULT_SESSION_TTL_S,
                 session_dir: str | Path | None = None,
                 peers: list[str] | tuple[str, ...] | None = None,
                 job_dir: str | Path | None = None) -> None:
        #: ``peers`` attaches the remote CAS tier: HOST:PORT addresses
        #: of fleet nodes whose ``/cas`` routes back this node's cache
        #: misses (ignored when a ready-made ``pipeline`` is passed).
        self.pipeline = pipeline or CompilerPipeline(
            capacity=capacity, disk=cache_dir, disk_bytes=cache_bytes,
            peers=peers)
        #: Stateful /session edit protocol; ``session_dir`` (the fleet
        #: spool) lets any prefork worker pick up a session a peer
        #: opened.
        self.sessions = SessionManager(
            self.pipeline, capacity=max_sessions, ttl_s=session_ttl,
            spool_dir=session_dir)
        self.dse_workers = max(1, dse_workers or 1)
        self.inflight_limit: int | None = None   # set by the server
        self.limits: dict | None = None          # set by the server
        self.board = board
        #: ``None`` = telemetry's process default ($REPRO_TRACE_SAMPLE
        #: or 1.0); otherwise a 0.0–1.0 head-sampling rate for request
        #: traces.
        self.trace_sample = trace_sample
        #: Requests at or above this many milliseconds are logged and
        #: counted (``None`` = slow-request log off).
        self.slow_request_ms = slow_request_ms
        #: Fleet trace spool: lets any worker serve /trace lookups for
        #: traces another worker finished.
        self.spool = Spool(trace_dir, "trace_id") if trace_dir else None
        #: Async /dse jobs; ``job_dir`` (the fleet spool) lets any
        #: prefork worker resolve a job a peer owns.
        self.jobs = JobManager(self._run_job, spool_dir=job_dir)
        self._metrics: dict[str, EndpointMetrics] = {}
        self._metrics_lock = threading.Lock()
        self._resilience = {"deadline_exceeded": 0, "shed": 0, "slow": 0}
        self._dse = {"requests": 0, "coalesced": 0, "async_jobs": 0,
                     "frontier_requests": 0, "stream_requests": 0,
                     "frontier_updates": 0, "points_evaluated": 0}
        self._cas = {"served": 0}
        #: Identical concurrent /dse submissions (keyed on the
        #: canonical job digest) coalesce on the pipeline's
        #: singleflight, so a herd of N identical sweeps costs one
        #: engine run and ``cache.singleflight`` counts it.
        self._dse_flights = self.pipeline._flights
        self._started = time.perf_counter()

    # -- trace access (ring buffer + fleet spool) ---------------------------

    def export_trace(self, trace: dict) -> None:
        """Telemetry exporter hook: spool finished traces fleet-wide.

        Registered by the server for its lifetime; the spool write
        happens at root-span exit *inside* ``handle``, so a trace is
        visible to every worker before its response reaches the
        client.
        """
        if self.spool is not None:
            self.spool.write(trace)

    def find_trace(self, trace_id: str) -> dict | None:
        trace = telemetry.find_trace(trace_id)
        if trace is None and self.spool is not None:
            trace = self.spool.read(trace_id)
        return trace

    def recent_traces(self, limit: int) -> list[dict]:
        """Newest finished traces: local ring ∪ fleet spool, deduped."""
        spooled = self.spool.records(limit) if self.spool else []
        traces = {t.get("trace_id"): t for t in spooled}
        for trace in telemetry.recent_traces(limit):
            traces.setdefault(trace.get("trace_id"), trace)
        ordered = sorted(traces.values(),
                         key=lambda t: float(t.get("start_s", 0.0)),
                         reverse=True)
        return ordered[:max(0, limit)]

    # -- resilience accounting ----------------------------------------------

    def record_shed(self, path: str) -> None:
        """One request shed by admission control (never dispatched)."""
        metric_key = metric_path(path)
        with self._metrics_lock:
            self._resilience["shed"] += 1
            self._metrics.setdefault(metric_key, EndpointMetrics()) \
                .record(0.0, error=True)

    # -- direct library calls (one per POST endpoint) ----------------------

    def respond(self, endpoint: str, request: Mapping[str, Any]) -> dict:
        # Chaos site: a ``kill`` spec here dies mid-POST (GET probes
        # are exempt so health polling cannot burn the spec's budget),
        # exercising supervisor respawn + client retry end to end.
        fault_point("server.worker")
        if endpoint == "dse":
            return self._respond_dse(request)
        option_keys = ENDPOINT_OPTIONS.get(endpoint)
        if option_keys is None:
            raise BadRequest(f"unknown endpoint {endpoint!r}")
        source = request.get("source")
        if not isinstance(source, str):
            raise BadRequest('request must carry a string "source" field')
        options = {key: request[key] for key in option_keys
                   if key in request}
        return self.pipeline.run(f"{endpoint}_payload", source, options)

    def _parse_dse(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a ``/dse`` request into sweep parameters.

        Shared by the buffered and streaming paths so both surfaces
        reject malformed requests identically, and count every valid
        request once in ``/metrics`` ``dse.requests``.
        """
        space = request.get("space")
        if not isinstance(space, str):
            raise BadRequest('request must carry a string "space" field')
        mode = request.get("mode", "exhaustive")
        if mode not in ("exhaustive", "frontier"):
            raise BadRequest(f"unknown dse mode {mode!r} "
                             f"(choose from: exhaustive, frontier)")
        try:
            sample = int(request.get("sample", 500))
            workers = request.get("workers", self.dse_workers)
            workers = 1 if workers is None else int(workers)
            memoize = bool(request.get("memoize", True))
            budget = request.get("budget")
            budget = None if budget is None else int(budget)
            sample_seed = request.get("sample_seed")
            sample_seed = (None if sample_seed is None
                           else int(sample_seed))
            batch_size = request.get("batch_size")
            batch_size = None if batch_size is None else int(batch_size)
        except (TypeError, ValueError) as error:
            raise BadRequest(f"malformed dse request: {error}") from None
        if mode != "frontier":
            if budget is not None:
                raise BadRequest('"budget" requires "mode": "frontier"')
            if request.get("stream"):
                raise BadRequest('"stream": true requires '
                                 '"mode": "frontier"')
        # Cap requested parallelism at the operator's --dse-workers.
        # Values > 1 fork a multiprocessing pool from this threaded
        # process, which only the operator can judge safe — a client
        # must not be able to trigger it.
        workers = max(1, min(workers, self.dse_workers or 1))
        with self._metrics_lock:
            self._dse["requests"] += 1
        return {"space": space, "mode": mode, "sample": sample,
                "sample_seed": sample_seed, "workers": workers,
                "memoize": memoize, "budget": budget,
                "batch_size": batch_size}

    def _record_dse(self, summary: dict, streamed: bool) -> None:
        with self._metrics_lock:
            self._dse["frontier_requests"] += 1
            if streamed:
                self._dse["stream_requests"] += 1
            self._dse["frontier_updates"] += summary.get(
                "frontier_versions", 0)
            self._dse["points_evaluated"] += summary.get("evaluated", 0)

    def _run_frontier(self, params: dict[str, Any],
                      on_update: Any = None,
                      streamed: bool = False) -> dict:
        """Run a frontier-mode query and account for it in /metrics."""
        with telemetry.span("stage:dse_frontier", space=params["space"]):
            summary = dse_frontier_summary(
                params["space"], budget=params["budget"],
                sample=params["sample"],
                sample_seed=params["sample_seed"],
                workers=params["workers"],
                batch_size=params["batch_size"],
                memoize=params["memoize"], on_update=on_update)
        self._record_dse(summary, streamed)
        return summary

    def _run_sweep(self, params: dict[str, Any]) -> dict:
        """One engine run for ``params`` (either mode), summarized."""
        if params["mode"] == "frontier":
            return self._run_frontier(params)
        summary = dse_summary(
            params["space"], sample=params["sample"],
            sample_seed=params["sample_seed"],
            workers=params["workers"],
            memoize=params["memoize"])
        # ``points_evaluated`` counts configs the engine actually ran,
        # whatever the mode: coalesced and cached requests add nothing,
        # so the counter exposes sweeps saved, not requests served.
        with self._metrics_lock:
            self._dse["points_evaluated"] += summary.get("points", 0)
        return summary

    def _run_job(self, params: dict[str, Any],
                 on_update: Any) -> dict:
        """JobManager runner: execute an async sweep to its payload."""
        if params["mode"] == "frontier":
            return {"ok": True,
                    **self._run_frontier(params, on_update=on_update)}
        return {"ok": True, **self._run_sweep(params)}

    def _respond_dse(self, request: Mapping[str, Any]) -> dict:
        params = self._parse_dse(request)
        if request.get("async"):
            if request.get("stream"):
                raise BadRequest('"stream" and "async" are exclusive '
                                 '(tail an async job via GET '
                                 '/jobs/{id}/stream)')
            record, coalesced = self.jobs.submit(params)
            with self._metrics_lock:
                self._dse["async_jobs"] += 1
                if coalesced:
                    self._dse["coalesced"] += 1
            return {"ok": True, "job": record["job"],
                    "state": record["state"], "space": record["space"],
                    "mode": record["mode"], "coalesced": coalesced}
        # Synchronous path: identical concurrent submissions coalesce
        # onto one engine run (the leader's summary is shared, so the
        # responses are byte-identical by construction).
        try:
            summary, coalesced = self._dse_flights.do(
                job_id_for(params), lambda: self._run_sweep(params))
        except ValueError as error:
            raise BadRequest(str(error)) from None
        if coalesced:
            with self._metrics_lock:
                self._dse["coalesced"] += 1
        return {"ok": True, **summary}

    # -- GET endpoints ------------------------------------------------------

    def health(self) -> dict:
        from .. import __version__

        payload = {"ok": True, "service": "dahlia-py",
                   "version": __version__}
        if self.limits is not None:
            payload["limits"] = dict(self.limits)
        if self.board is not None:
            workers = self.board.liveness()
            payload["ok"] = bool(workers) and all(
                worker["alive"] for worker in workers)
            payload["workers"] = workers
        return payload

    def local_metrics(self) -> dict:
        """This process's own counters (what workers publish)."""
        with self._metrics_lock:
            endpoints = {path: m.as_dict()
                         for path, m in sorted(self._metrics.items())}
            resilience = dict(self._resilience)
            dse = dict(self._dse)
            cas = dict(self._cas)
        resilience["faults"] = fault_stats()
        return {
            "uptime_s": round(time.perf_counter() - self._started, 3),
            "inflight_limit": self.inflight_limit,
            "endpoints": endpoints,
            "resilience": resilience,
            "cache": self.pipeline.stats(),
            "sessions": self.sessions.stats(),
            "dse": dse,
            "cas": cas,
            "jobs": self.jobs.stats(),
        }

    def publish_stats(self) -> None:
        """Push this worker's snapshot to the board (no-op unboarded)."""
        if self.board is not None:
            self.board.publish({"metrics": self.local_metrics()})

    def metrics(self) -> dict:
        """``/metrics``: solo counters, or fleet totals when boarded.

        A boarded worker first republishes its own snapshot, so the
        aggregate always includes the answering worker's latest state;
        peer snapshots are at most one request or heartbeat old.
        """
        local = self.local_metrics()
        if self.board is None:
            return {"ok": True, **local}
        self.publish_stats()
        return {"ok": True, **self.board.fleet_metrics(local)}

    # -- the one outcome path -----------------------------------------------

    def handle(self, method: str, path: str, body: bytes,
               request_id: str | None = None) -> tuple[int, Any]:
        """Dispatch one request; returns ``(status, payload)``.

        Never raises: client mistakes become 4xx payloads, unexpected
        failures 500s, and every outcome is recorded in the per-path
        metrics table (histogram included).

        ``request_id`` — the ``X-Request-Id`` the transport read (or
        minted) — becomes the trace id: POSTs run under a root span
        (subject to ``trace_sample``), so a client retrying with one
        id correlates every attempt to the same trace, and the finished
        trace is exported (ring + fleet spool) *before* the response
        is returned. GET probes are never traced — a heartbeat poll
        must not churn the trace ring.
        """
        return self.serve(Call(method, path, body, request_id))

    def serve(self, call: Call) -> tuple[int, Any]:
        """The buffered answer to ``call`` (see :meth:`handle`)."""
        handler = getattr(self, call.route[0]) if call.route else _unrouted
        return self._outcome(call, handler)

    def stream(self, call: Call, emit: Any, stop: Any = None) -> int:
        """Answer ``call`` through its route's streaming handler:
        events go to ``emit``, the last a ``result`` or an ``error``
        with its status. Never raises; returns the status."""
        return self._outcome(call, getattr(self, call.route[1]), emit,
                             stop)[0]

    def error_outcome(self, error: Exception) -> tuple[int, dict]:
        """The ``(status, payload)`` a failed request answers with."""
        if isinstance(error, BadRequest):
            return 400, {"ok": False, "error": str(error)}
        if isinstance(error, DeadlineExceeded):
            # Cooperative cancellation fired inside a pipeline stage
            # (or the transport gave up waiting): the request's budget
            # ran out, so degrade with a bounded, structured answer
            # instead of finishing the work late.
            with self._metrics_lock:
                self._resilience["deadline_exceeded"] += 1
            return 503, {"ok": False, "error": str(error),
                         "deadline_exceeded": True,
                         "budget_s": error.budget_s}
        return 500, {"ok": False,
                     "error": f"{type(error).__name__}: {error}"}

    def _outcome(self, call: Call, handler: Any, emit: Any = None,
                 stop: Any = None) -> tuple[int, Any]:
        """Run ``handler`` under the root span; map and record. A
        streamed call (``emit`` given) reports a failure as an event."""
        started = time.perf_counter()
        scope = (telemetry.root_span(f"{call.method} {call.path}",
                                     trace_id=call.request_id,
                                     sample_rate=self.trace_sample)
                 if call.method == "POST"
                 else contextlib.nullcontext(telemetry.NOOP_SPAN))
        with scope as root:
            try:
                fault_point("server.handle")  # chaos site: handler latency
                status, payload = (handler(call) if emit is None
                                   else handler(call, emit, stop))
            except Exception as error:      # noqa: BLE001 — service boundary
                status, payload = self.error_outcome(error)
                if emit is not None:
                    emit({"type": "error", "status": status,
                          "payload": payload})
            root.set_attr("status", status)
            if emit is not None:
                root.set_attr("streamed", True)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        metric_key = metric_path(call.path)
        slow = (self.slow_request_ms is not None
                and elapsed_ms >= self.slow_request_ms)
        with self._metrics_lock:
            metric = self._metrics.setdefault(metric_key,
                                              EndpointMetrics())
            metric.record(elapsed_ms, error=status >= 400)
            if slow:
                self._resilience["slow"] += 1
        if slow:
            logger.warning(
                "slow request: %s %s took %.1f ms (threshold %g ms) "
                "[request %s]", call.method, call.path, elapsed_ms,
                self.slow_request_ms, call.request_id)
        return status, payload

    # -- route handlers (see ROUTES) ----------------------------------------

    def _post_stage(self, call: Call) -> tuple[int, Any]:
        return 200, self.respond(call.path[1:], call.json())

    def _get_health(self, call: Call) -> tuple[int, Any]:
        payload = self.health()
        # Status-code probes (curl -f, LB checks) must see a degraded
        # fleet without parsing the body.
        return (200 if payload["ok"] else 503), payload

    def _get_metrics(self, call: Call) -> tuple[int, Any]:
        return 200, self.metrics()

    def _get_stages(self, call: Call) -> tuple[int, Any]:
        return 200, {
            "ok": True,
            "stages": {name: {"deps": list(spec.deps),
                              "options": list(spec.options)}
                       for name, spec in STAGES.items()},
        }

    def _get_trace(self, call: Call) -> tuple[int, Any]:
        """``GET /trace``: recent trace listing, or lookup by id.

        ``?id=<trace_id>`` returns the full trace JSON (``404`` when
        neither the local ring nor the fleet spool has it);
        ``&format=chrome`` returns the Chrome trace-event export
        instead (save it and load in Perfetto). Without ``id``,
        ``?limit=N`` (default 20) bounds the listing.
        """
        params = call.query
        trace_id = (params.get("id") or [""])[0]
        render = (params.get("format") or [""])[0]
        if render not in ("", "json", "chrome"):
            raise BadRequest(f"unknown trace format {render!r} "
                             f"(choose json or chrome)")
        try:
            limit = int((params.get("limit") or ["20"])[0])
        except ValueError:
            raise BadRequest("malformed limit (expected an integer)") \
                from None
        if trace_id:
            trace = self.find_trace(trace_id)
            if trace is None:
                return 404, {"ok": False,
                             "error": f"no trace {trace_id!r} (it may "
                                      f"have aged out, or the request "
                                      f"was not sampled)"}
            if render == "chrome":
                return 200, telemetry.chrome_trace(trace)
            return 200, {"ok": True, "trace": trace}
        traces = self.recent_traces(limit)
        return 200, {
            "ok": True,
            "count": len(traces),
            "traces": [telemetry.trace_summary(t) for t in traces],
        }

    def _get_cas(self, call: Call) -> tuple[int, Any]:
        """The read-only content-addressed artifact exchange.

        ``GET /cas/{digest}?stage=…`` serves the raw pickle blob from
        the *local* tiers (memory peek or disk file — never a peer
        probe, so mutually-peered fleets cannot recurse), with its
        SHA-256 in ``X-CAS-Sha256`` for the fetcher to verify. Bare
        ``GET /cas`` reports exchange counters. Nothing accepts blobs:
        a key names its input, so a pushed value could not be checked.
        """
        digest = call.arg
        if not digest:
            remote = self.pipeline.store.remote
            with self._metrics_lock:
                counters = dict(self._cas)
            return 200, {
                "ok": True,
                "cas": counters,
                "remote": remote.stats() if remote else None,
            }
        # Digest and stage name a disk-tier file: refuse anything but
        # a SHA-256 digest and a stage name before a path is built.
        if not re.fullmatch(r"[0-9a-f]{64}", digest):
            return _not_found(call.path)
        stage = (call.query.get("stage") or [""])[0]
        if not stage:
            raise BadRequest('query parameter "stage" is required')
        key = ArtifactKey(stage, digest)
        blob = (self.pipeline.store.peek_blob(key)
                if re.fullmatch(r"[a-z_]+", stage) else None)
        if blob is None:
            return 404, {"ok": False, "error": f"no artifact {key}"}
        with self._metrics_lock:
            self._cas["served"] += 1
        return 200, RawPayload(blob, headers={
            "X-CAS-Sha256": hashlib.sha256(blob).hexdigest(),
            "X-CAS-Stage": stage,
        })

    def _job_payload(self, record: Mapping[str, Any]) -> dict:
        payload = {
            "ok": True,
            "job": record.get("job"),
            "state": record.get("state"),
            "space": record.get("space"),
            "mode": record.get("mode"),
            "frontier_version": record.get("frontier_version", 0),
            "updates": len(record.get("updates", [])),
        }
        if record.get("state") == "done":
            payload["result"] = record.get("result")
        elif record.get("state") == "error":
            payload["error"] = record.get("error", "job failed")
        return payload

    def _get_jobs(self, call: Call) -> tuple[int, Any]:
        """Async job introspection: listing, status polls, and (when
        ``handle`` is called directly, without the streaming
        transport) a buffered stand-in for ``/jobs/{id}/stream``."""
        job_id = call.arg
        if not job_id:
            try:
                limit = int((call.query.get("limit") or ["20"])[0])
            except ValueError:
                raise BadRequest("malformed limit (expected an "
                                 "integer)") from None
            records = self.jobs.list(limit)
            return 200, {
                "ok": True,
                "count": len(records),
                "jobs": [self._job_payload(record)
                         for record in records],
            }
        if "/" in job_id:
            return _not_found(call.path)
        record = self.jobs.get(job_id)
        if record is None:
            return 404, {"ok": False,
                         "error": f"no such job {job_id!r}"}
        return 200, self._job_payload(record)

    def _post_session(self, call: Call) -> tuple[int, Any]:
        """The stateful edit protocol.

        ``POST /session`` opens, ``POST /session/{id}`` applies a
        versioned delta (``DELETE /session/{id}`` closes). The spans
        attribute reparsed-vs-reused segment counts, so a trace of an
        interactive editing burst shows exactly how much of each
        keystroke's latency was frontend work.
        """
        request = call.json()
        session_id = call.arg
        stage = "session_edit" if session_id else "session_open"
        with telemetry.span(f"stage:{stage}") as span:
            if session_id:
                status, payload = self.sessions.edit(
                    session_id, request, call.request_id)
            else:
                status, payload = self.sessions.open(request,
                                                     call.request_id)
            span.set_attr("status", status)
            if isinstance(payload, dict):
                for key in ("session", "version", "segments",
                            "reparsed", "reused", "relocated"):
                    if key in payload:
                        span.set_attr(key, payload[key])
        return status, payload

    def _delete_session(self, call: Call) -> tuple[int, Any]:
        if not call.arg:
            return 405, {"ok": False,
                         "error": "method DELETE not allowed "
                                  "(close a session by id: "
                                  "DELETE /session/{id})"}
        return self.sessions.close(call.arg)

    # -- streaming handlers -------------------------------------------------

    def _stream_dse(self, call: Call, emit: Any,
                    stop: Any) -> tuple[int, Any]:
        """Streaming ``/dse``: run a frontier query, emitting events.

        ``{"type": "frontier", "version": ...}`` for every frontier
        version advance, then one ``{"type": "result", "payload":
        {...}}`` carrying exactly the buffered response.
        """
        fault_point("server.worker")
        params = self._parse_dse(call.json())
        try:
            summary = self._run_frontier(
                params, streamed=True,
                on_update=lambda update: emit(
                    {"type": "frontier", **update}))
        except ValueError as error:
            raise BadRequest(str(error)) from None
        payload = {"ok": True, **summary}
        emit({"type": "result", "payload": payload})
        return 200, payload

    def _stream_job(self, call: Call, emit: Any,
                    stop: Any) -> tuple[int, Any]:
        """Streaming ``GET /jobs/{id}/stream``: tail a job's updates.

        Same event vocabulary as :meth:`_stream_dse` — ``frontier``
        updates (replayed from the spooled record, monotone versions),
        then a terminal ``result`` or ``error``.
        """
        return self.jobs.tail(call.arg, emit, stop=stop), None
