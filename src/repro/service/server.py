"""Stdlib-only asyncio JSON-over-HTTP compiler service.

Endpoints (all JSON bodies):

* ``POST /check``    — ``{"source"}`` → checker verdict or diagnostic;
* ``POST /estimate`` — ``{"source"}`` → the HLS estimator report;
* ``POST /compile``  — ``{"source", "erase"?, "kernel_name"?}`` → C++;
* ``POST /rtl``      — ``{"source", "module_name"?}`` → Verilog;
* ``POST /interp``   — ``{"source", "check"?}`` → final memories;
* ``POST /dse``      — ``{"space", "sample"?, "workers"?, "memoize"?}``
  → a sweep summary from :func:`repro.service.pipeline.dse_summary`
  (which dispatches to the parallel sweep engine); ``"async": true``
  registers a spooled job instead and returns its id immediately;
* ``GET /jobs``      — async job records: listing, ``/jobs/{id}``
  status polls, and ``/jobs/{id}/stream`` NDJSON frontier tails;
* ``GET /cas``       — the read-only content-addressed artifact
  exchange: ``/cas/{digest}?stage=…`` serves raw artifact blobs so
  peered nodes (``serve --peers``) fetch each other's warm artifacts
  instead of recomputing them;
* ``GET /healthz``   — liveness probe;
* ``GET /metrics``   — per-endpoint latency counters + artifact-cache
  hit/miss statistics;
* ``GET /stages``    — the pipeline's declarative stage graph.

The HTTP layer is a deliberately small HTTP/1.1 subset (request line,
headers, ``Content-Length`` bodies, keep-alive) on
``asyncio.start_server`` — no third-party dependency. Requests execute
on a thread pool behind an ``asyncio.Semaphore``, so concurrency is
bounded and a slow ``/dse`` sweep cannot starve the accept loop.

**Multi-process serving** (``dahlia-py serve --workers N``): the entry
point preforks ``N`` identical worker processes sharing one listening
port — each worker binds its own ``SO_REUSEPORT`` socket where the
platform supports it, otherwise all workers accept on a single
listening socket inherited over ``fork``. Workers share the
*persistent artifact tier* (``--cache-dir``), so any worker can serve
any other worker's cached stage results, and publish their per-process
statistics to a :class:`WorkerBoard` (one spooled JSON record per
worker, atomic rename) from which any worker answers ``/metrics`` with
fleet-aggregated numbers and ``/healthz`` with per-worker liveness.
The parent process only supervises: it respawns workers that die.

Parity contract: the response body for a POST endpoint is exactly
``encode_payload(service.respond(endpoint, request))`` — the same
payload a direct library call through the
:class:`~repro.service.pipeline.CompilerPipeline` produces, byte for
byte. The test-suite enforces this.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import os
import re
import socket
import tempfile
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..util import telemetry
from ..util.deadline import Deadline, DeadlineExceeded, deadline_scope
from ..util.faults import fault_point, fault_stats
from ..util.spool import Spool, pid_alive
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

logger = logging.getLogger(__name__)

#: Option keys each POST endpoint forwards to its payload stage —
#: derived from the stage declarations so the filter cannot drift from
#: the pipeline's cache-key contract.
ENDPOINT_OPTIONS: dict[str, tuple[str, ...]] = {
    name: relevant_options(f"{name}_payload")
    for name in ("check", "estimate", "compile", "rtl", "interp")
}

#: Routes that get their own row in the metrics table; anything else
#: is bucketed under one key so unknown-path probes can't grow the
#: table (and the /metrics response) without bound.
KNOWN_PATHS = frozenset(
    {"/healthz", "/metrics", "/stages", "/trace", "/dse", "/session",
     "/cas", "/jobs"}
    | {f"/{name}" for name in ENDPOINT_OPTIONS})


def metric_path(path: str) -> str:
    """The metrics-table key for ``path``.

    ``/session/{id}``, ``/cas/{digest}``, and ``/jobs/{id}`` routes
    carry per-request ids, so each family shares its base row; any
    other unknown path shares one bucket so probes can't grow the
    table without bound.
    """
    for prefix in ("/session/", "/cas/", "/jobs/"):
        if path.startswith(prefix):
            return prefix[:-1]
    return path if path in KNOWN_PATHS else "(unknown)"


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


#: Seconds between idle stats publications from each worker.
HEARTBEAT_S = 2.0

#: A worker whose stats file is older than this many heartbeats is
#: reported stale even if its pid still exists (e.g. a hung process).
_STALE_HEARTBEATS = 5

#: A worker death this soon after its spawn counts toward the
#: supervisor's crash-loop guard; this many in a row aborts the fleet.
_FAST_DEATH_S = 5.0
_MAX_FAST_DEATHS = 5

#: Extra seconds past a request's budget before the transport stops
#: waiting for the handler thread and answers 503 itself. Cooperative
#: cancellation (stage-boundary checks) normally fires first; the
#: backstop covers handlers stuck in non-cooperative code.
DEADLINE_GRACE_S = 0.25

#: ``/dse`` runs engine sweeps that are long by design; its budget is
#: the per-route timeout scaled by this factor.
DSE_BUDGET_FACTOR = 20.0

#: Advisory client delay for shed (429) responses.
RETRY_AFTER_S = 1.0


class WorkerBoard:
    """Heartbeat and liveness policy over the fleet's stats spool.

    Each worker owns one record (keyed by its index) in a
    :class:`~repro.util.spool.Spool` at the board directory and
    republishes its snapshot after every request and on an idle
    heartbeat. Any worker can then answer ``/metrics`` for the whole
    fleet by reading every record, and ``/healthz`` by checking each
    record's pid and heartbeat age — there is no IPC beyond the
    filesystem, which is exactly the dependency the shared artifact
    tier already implies.
    """

    def __init__(self, root: str | Path, worker: int | None = None) -> None:
        self.spool = Spool(root, "worker")
        self.worker = worker
        self._lock = threading.Lock()

    def path_for(self, worker: int) -> Path:
        return self.spool.path_for(worker)

    def publish(self, payload: dict) -> None:
        """Atomically replace this worker's stats record.

        The snapshot is taken under the lock, so concurrent publishers
        in one process cannot overwrite newer counters with older ones.
        """
        if self.worker is None:
            return
        with self._lock:
            self.spool.write({
                "worker": self.worker,
                "pid": os.getpid(),
                "updated": time.time(),
                **payload,
            })

    def read_all(self) -> list[dict]:
        """Every worker's latest snapshot, in worker order."""
        return sorted(self.spool.records(),
                      key=lambda record: str(record.get("worker")))

    def liveness(self) -> list[dict]:
        """Per-worker liveness for ``/healthz``."""
        now = time.time()
        report = []
        for record in self.read_all():
            age = max(0.0, now - float(record.get("updated", 0.0)))
            pid = int(record.get("pid", -1))
            report.append({
                "worker": record.get("worker"),
                "pid": pid,
                "alive": (pid_alive(pid)
                          and age < _STALE_HEARTBEATS * HEARTBEAT_S),
                "heartbeat_age_s": round(age, 3),
            })
        return report


#: Snapshot keys naming state the fleet shares (one disk tier, one
#: peer list, one fault plan): the fleet fold reads them from the
#: freshest snapshot instead of summing per-worker copies.
_SHARED_KEYS = frozenset({"root", "max_bytes", "files", "bytes",
                          "peers", "plan"})

#: Snapshot keys describing only the worker that published them; a
#: fleet ``/metrics`` reports the answering worker's own.
_PER_PROCESS_KEYS = frozenset({"uptime_s", "inflight_limit"})


def _aggregate_metrics(records: list[dict]) -> dict:
    """Fold per-worker ``/metrics`` snapshots into fleet totals.

    The fold is structural, so a new counter needs no edit here.
    Numbers sum (histogram buckets are maps of numbers, so they sum
    too) except ``max_ms``, which takes the max; ``None`` (a worker
    without a fault plan) adds nothing; :data:`_SHARED_KEYS` come from
    the freshest snapshot holding them. Means, percentiles and the hit
    rate are then recomputed from the folded totals.
    """
    fleet: dict = {}
    stamps: dict[tuple, float] = {}     # key path → ``updated`` of its value

    def fold(into: dict, row: Mapping, updated: float,
             path: tuple) -> None:
        for key, value in row.items():
            at = path + (key,)
            if isinstance(value, dict):
                if not isinstance(into.get(key), dict):
                    into[key] = {}
                fold(into[key], value, updated, at)
            elif value is None:
                into.setdefault(key, None)
            elif key in _SHARED_KEYS or not isinstance(value, (int, float)):
                if updated > stamps.get(at, float("-inf")):
                    stamps[at] = updated
                    into[key] = value
            elif key == "max_ms":
                into[key] = max(into.get(key) or 0.0, value)
            else:
                into[key] = (into.get(key) or 0) + value

    for record in records:
        metrics = {key: value
                   for key, value in record.get("metrics", {}).items()
                   if key not in _PER_PROCESS_KEYS}
        fold(fleet, metrics, float(record.get("updated", 0.0)), ())
    _recompute(fleet)
    return fleet


def _recompute(row: dict) -> None:
    """Re-derive, depth first, the values a sum would garble."""
    for value in row.values():
        if isinstance(value, dict):
            _recompute(value)
    if "total_ms" in row:                       # a latency histogram row
        requests = row.get("requests", 0)
        row["mean_ms"] = (round(row["total_ms"] / requests, 3)
                          if requests else 0.0)
        row["total_ms"] = round(row["total_ms"], 3)
        row["max_ms"] = round(row.get("max_ms", 0.0), 3)
        buckets = row.setdefault("buckets", {})
        for quantile, key in ((0.50, "p50_ms"), (0.95, "p95_ms"),
                              (0.99, "p99_ms")):
            row[key] = telemetry.quantile_from_buckets(buckets, quantile)
    if "hit_rate" in row:
        hits = row.get("hits", 0)
        total = hits + row.get("misses", 0)
        row["hit_rate"] = round(hits / total, 4) if total else 0.0


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

    def record_deadline(self, path: str) -> None:
        with self._metrics_lock:
            self._resilience["deadline_exceeded"] += 1

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
        reject malformed requests identically.
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
        with self._metrics_lock:
            self._dse["requests"] += 1
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

    def job_stream(self, job_id: str, emit: Any,
                   request_id: str | None = None,
                   stop: Any = None) -> int:
        """Streaming ``GET /jobs/{id}/stream``: tail a job's updates.

        Same event vocabulary as :meth:`dse_stream` — ``frontier``
        updates (replayed from the spooled record, monotone versions),
        then a terminal ``result`` or ``error``. Never raises; records
        the stream under the ``/jobs`` metrics row.
        """
        started = time.perf_counter()
        try:
            status = self.jobs.tail(job_id, emit, stop=stop)
        except Exception as error:  # noqa: BLE001 — service boundary
            status = 500
            emit({"type": "error", "status": status,
                  "payload": {"ok": False,
                              "error": f"{type(error).__name__}: "
                                       f"{error}"}})
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._metrics_lock:
            self._metrics.setdefault("/jobs", EndpointMetrics()) \
                .record(elapsed_ms, error=status >= 400)
        return status

    def dse_stream(self, body: bytes, emit: Any,
                   request_id: str | None = None) -> int:
        """Streaming ``/dse``: run a frontier query, emitting events.

        ``emit`` receives JSON-ready dicts: ``{"type": "frontier",
        "version": ...}`` for every frontier version advance, then one
        ``{"type": "result", "payload": {...}}`` carrying exactly the
        buffered response — or ``{"type": "error", "status": ...,
        "payload": {...}}`` on any failure (the transport turns a
        first-event error into a plain status response). Never raises;
        returns the request's status and records it in the per-path
        metrics exactly like :meth:`handle`.
        """
        started = time.perf_counter()
        request_id = request_id or telemetry.new_id()
        status = 200
        with telemetry.root_span("POST /dse", trace_id=request_id,
                                 sample_rate=self.trace_sample) as root:
            try:
                fault_point("server.handle")
                fault_point("server.worker")
                try:
                    request = json.loads(body.decode() or "{}")
                except (UnicodeDecodeError,
                        json.JSONDecodeError) as error:
                    raise BadRequest(
                        f"body is not valid JSON: {error}") from None
                if not isinstance(request, dict):
                    raise BadRequest("request body must be a JSON "
                                     "object")
                params = self._parse_dse(request)
                if params["mode"] != "frontier":
                    raise BadRequest('"stream": true requires '
                                     '"mode": "frontier"')
                try:
                    summary = self._run_frontier(
                        params, streamed=True,
                        on_update=lambda update: emit(
                            {"type": "frontier", **update}))
                except ValueError as error:
                    raise BadRequest(str(error)) from None
                emit({"type": "result",
                      "payload": {"ok": True, **summary}})
            except BadRequest as error:
                status = 400
                emit({"type": "error", "status": status,
                      "payload": {"ok": False, "error": str(error)}})
            except DeadlineExceeded as error:
                self.record_deadline("/dse")
                status = 503
                emit({"type": "error", "status": status,
                      "payload": {"ok": False, "error": str(error),
                                  "deadline_exceeded": True,
                                  "budget_s": error.budget_s}})
            except Exception as error:  # noqa: BLE001 — service boundary
                status = 500
                emit({"type": "error", "status": status,
                      "payload": {"ok": False,
                                  "error": f"{type(error).__name__}: "
                                           f"{error}"}})
            root.set_attr("status", status)
            root.set_attr("streamed", True)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._metrics_lock:
            self._metrics.setdefault("/dse", EndpointMetrics()) \
                .record(elapsed_ms, error=status >= 400)
        return status

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
        records = self.board.read_all()
        aggregated = _aggregate_metrics(records)
        return {
            "ok": True,
            "uptime_s": local["uptime_s"],
            "inflight_limit": local["inflight_limit"],
            "workers": {
                "count": len(records),
                "per_worker": {
                    str(record.get("worker")): {
                        "pid": record.get("pid"),
                        "requests": sum(
                            row.get("requests", 0) for row in
                            record.get("metrics", {})
                            .get("endpoints", {}).values()),
                    }
                    for record in records
                },
            },
            **aggregated,
        }

    def stages(self) -> dict:
        return {
            "ok": True,
            "stages": {name: {"deps": list(spec.deps),
                              "options": list(spec.options)}
                       for name, spec in STAGES.items()},
        }

    def _respond_trace(self, params: Mapping[str, list[str]],
                       ) -> tuple[int, Any]:
        """``GET /trace``: recent trace listing, or lookup by id.

        ``?id=<trace_id>`` returns the full trace JSON (``404`` when
        neither the local ring nor the fleet spool has it);
        ``&format=chrome`` returns the Chrome trace-event export
        instead (save it and load in Perfetto). Without ``id``,
        ``?limit=N`` (default 20) bounds the listing.
        """
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

    # -- transport-facing dispatch -----------------------------------------

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
        started = time.perf_counter()
        path, _, query = path.partition("?")
        params = urllib.parse.parse_qs(query)
        request_id = request_id or telemetry.new_id()
        scope = (telemetry.root_span(f"{method} {path}",
                                     trace_id=request_id,
                                     sample_rate=self.trace_sample)
                 if method == "POST"
                 else contextlib.nullcontext(telemetry.NOOP_SPAN))
        with scope as root:
            try:
                fault_point("server.handle")  # chaos site: handler latency
                status, payload = self._dispatch(method, path, params,
                                                 body, request_id)
            except BadRequest as error:
                status, payload = 400, {"ok": False, "error": str(error)}
            except DeadlineExceeded as error:
                # Cooperative cancellation fired inside a pipeline
                # stage: the request's budget ran out, so degrade with
                # a bounded, structured answer instead of finishing
                # the work late.
                self.record_deadline(path)
                status, payload = 503, {
                    "ok": False, "error": str(error),
                    "deadline_exceeded": True, "budget_s": error.budget_s}
            except Exception as error:      # noqa: BLE001 — service boundary
                status, payload = 500, {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}"}
            root.set_attr("status", status)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        metric_key = metric_path(path)
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
                "[request %s]", method, path, elapsed_ms,
                self.slow_request_ms, request_id)
        return status, payload

    def _dispatch(self, method: str, path: str,
                  params: Mapping[str, list[str]],
                  body: bytes,
                  request_id: str | None = None) -> tuple[int, Any]:
        if path == "/session" or path.startswith("/session/"):
            return self._dispatch_session(method, path, body, request_id)
        if path == "/cas" or path.startswith("/cas/"):
            return self._dispatch_cas(method, path, params)
        if path == "/jobs" or path.startswith("/jobs/"):
            return self._dispatch_jobs(method, path, params)
        if method == "GET":
            if path == "/healthz":
                payload = self.health()
                # Status-code probes (curl -f, LB checks) must see a
                # degraded fleet without parsing the body.
                return (200 if payload["ok"] else 503), payload
            if path == "/metrics":
                return 200, self.metrics()
            if path == "/stages":
                return 200, self.stages()
            if path == "/trace":
                return self._respond_trace(params)
            return 404, {"ok": False, "error": f"no such endpoint {path!r}"}
        if method != "POST":
            return 405, {"ok": False,
                         "error": f"method {method} not allowed"}
        endpoint = path.lstrip("/")
        if endpoint not in ENDPOINT_OPTIONS and endpoint != "dse":
            return 404, {"ok": False, "error": f"no such endpoint {path!r}"}
        try:
            request = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"body is not valid JSON: {error}") from None
        if not isinstance(request, dict):
            raise BadRequest("request body must be a JSON object")
        return 200, self.respond(endpoint, request)

    def _dispatch_cas(self, method: str, path: str,
                      params: Mapping[str, list[str]]) -> tuple[int, Any]:
        """The read-only content-addressed artifact exchange.

        ``GET /cas/{digest}?stage=…`` serves the raw pickle blob from
        the *local* tiers (memory peek or disk file — never a peer
        probe, so mutually-peered fleets cannot recurse), with its
        SHA-256 in ``X-CAS-Sha256`` for the fetcher to verify. Bare
        ``GET /cas`` reports exchange counters. Nothing accepts blobs:
        a key names its input, so a pushed value could not be checked.
        """
        if method != "GET":
            return 405, {"ok": False,
                         "error": f"method {method} not allowed"}
        digest = path[len("/cas/"):] if path.startswith("/cas/") else ""
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
            return 404, {"ok": False,
                         "error": f"no such endpoint {path!r}"}
        stage = (params.get("stage") or [""])[0]
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

    def _dispatch_jobs(self, method: str, path: str,
                       params: Mapping[str, list[str]]) -> tuple[int, Any]:
        """Async job introspection: listing, status polls, and (when
        ``handle`` is called directly, without the streaming
        transport) a buffered stand-in for ``/jobs/{id}/stream``."""
        if method != "GET":
            return 405, {"ok": False,
                         "error": f"method {method} not allowed"}
        job_id = path[len("/jobs/"):] if path.startswith("/jobs/") else ""
        if not job_id:
            try:
                limit = int((params.get("limit") or ["20"])[0])
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
        if job_id.endswith("/stream"):
            job_id = job_id[:-len("/stream")]
        if "/" in job_id or not job_id:
            return 404, {"ok": False,
                         "error": f"no such endpoint {path!r}"}
        record = self.jobs.get(job_id)
        if record is None:
            return 404, {"ok": False,
                         "error": f"no such job {job_id!r}"}
        return 200, self._job_payload(record)

    def _dispatch_session(self, method: str, path: str, body: bytes,
                          request_id: str | None) -> tuple[int, Any]:
        """Route the stateful edit protocol.

        ``POST /session`` opens, ``POST /session/{id}`` applies a
        versioned delta, ``DELETE /session/{id}`` closes. The spans
        attribute reparsed-vs-reused segment counts, so a trace of an
        interactive editing burst shows exactly how much of each
        keystroke's latency was frontend work.
        """
        session_id = path[len("/session/"):] \
            if path.startswith("/session/") else None
        if session_id == "":
            return 404, {"ok": False,
                         "error": f"no such endpoint {path!r}"}
        if method == "DELETE":
            if session_id is None:
                return 405, {"ok": False,
                             "error": "method DELETE not allowed "
                                      "(close a session by id: "
                                      "DELETE /session/{id})"}
            return self.sessions.close(session_id)
        if method != "POST":
            return 405, {"ok": False,
                         "error": f"method {method} not allowed"}
        try:
            request = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"body is not valid JSON: {error}") from None
        if not isinstance(request, dict):
            raise BadRequest("request body must be a JSON object")
        stage = "session_open" if session_id is None else "session_edit"
        with telemetry.span(f"stage:{stage}") as span:
            if session_id is None:
                status, payload = self.sessions.open(request, request_id)
            else:
                status, payload = self.sessions.edit(session_id, request,
                                                     request_id)
            span.set_attr("status", status)
            if isinstance(payload, dict):
                for key in ("session", "version", "segments",
                            "reparsed", "reused", "relocated"):
                    if key in payload:
                        span.set_attr(key, payload[key])
        return status, payload


# ---------------------------------------------------------------------------
# The asyncio HTTP transport.
# ---------------------------------------------------------------------------

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Reject bodies larger than this (defense against unbounded buffering).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reject header blocks larger than this, counting names and values —
#: the body bound alone would leave the header loop unbounded.
MAX_HEADER_BYTES = 64 * 1024

#: After an early 400, read and discard at most this much unread input,
#: for at most this long, before closing (see :func:`_linger`).
LINGER_MAX_BYTES = 1024 * 1024
LINGER_MAX_S = 2.0


def _response_bytes(status: int, body: bytes, keep_alive: bool,
                    extra_headers: Mapping[str, str] | None = None,
                    content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "OK")
    connection = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += f"Connection: {connection}\r\n\r\n"
    return head.encode() + body


def _wants_stream(path: str, body: bytes) -> bool:
    """Should this POST get the chunked NDJSON treatment?

    Only a well-formed ``/dse`` body asking for ``stream`` in
    ``frontier`` mode streams; everything else (including a malformed
    body, or ``stream`` without frontier mode) takes the buffered path
    so it gets the normal error surface with real status codes.
    """
    if path != "/dse":
        return False
    try:
        request = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    # An async submission never streams inline (tail the job instead);
    # letting it reach the buffered path produces the 400 explaining
    # exactly that.
    return (isinstance(request, dict) and bool(request.get("stream"))
            and request.get("mode") == "frontier"
            and not request.get("async"))


def _job_stream_id(path: str) -> str | None:
    """The job id when ``path`` is ``/jobs/{id}/stream``, else None."""
    bare = path.partition("?")[0]
    if not bare.startswith("/jobs/") or not bare.endswith("/stream"):
        return None
    job_id = bare[len("/jobs/"):-len("/stream")]
    return job_id if job_id and "/" not in job_id else None


def _stream_head(keep_alive: bool,
                 extra_headers: Mapping[str, str]) -> bytes:
    connection = "keep-alive" if keep_alive else "close"
    head = ("HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n")
    for name, value in extra_headers.items():
        head += f"{name}: {value}\r\n"
    head += f"Connection: {connection}\r\n\r\n"
    return head.encode()


def _chunk_bytes(data: bytes) -> bytes:
    return f"{len(data):X}\r\n".encode() + data + b"\r\n"


async def _linger(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """Half-close, then drain unread input before the connection closes.

    A request rejected before it was fully read leaves the client's
    remaining bytes unread. Closing a socket with unread input makes
    the kernel send an RST, which can overtake the 400 still in flight
    and reach a client that is still sending as ``BrokenPipeError`` or
    ``ConnectionResetError`` instead of the response. Sending FIN first
    and reading until the client's EOF (bounded in bytes and time)
    lets the response arrive intact.
    """
    if writer.can_write_eof():
        writer.write_eof()
    drained = 0
    with contextlib.suppress(TimeoutError):
        async with asyncio.timeout(LINGER_MAX_S):
            while drained < LINGER_MAX_BYTES:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    return
                drained += len(chunk)


async def _read_request(reader: asyncio.StreamReader,
                        ) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on a clean EOF before the first byte."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 3:
        raise BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(header)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest("header block too large")
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise BadRequest("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise BadRequest("unacceptable Content-Length")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class ServiceServer:
    """Asyncio HTTP server around a :class:`DahliaService`.

    Request handlers run on a thread pool (the pipeline is pure Python
    and thread-safe); an ``asyncio.Semaphore`` bounds the number of
    requests in flight.

    **Resilience knobs** (both default off, preserving the historical
    open-ended behavior):

    * ``request_timeout`` — per-request budget in seconds. The budget
      is armed as a cooperative :class:`~repro.util.deadline.Deadline`
      on the handler thread (pipeline stages check it at their
      boundaries) and backstopped by the transport, which answers a
      structured 503 at ``budget + DEADLINE_GRACE_S`` even if the
      handler never cooperates. ``/dse`` gets ``DSE_BUDGET_FACTOR`` ×
      the budget — sweeps are long-running by contract.
    * ``queue_depth`` — admission control: POSTs arriving while all
      in-flight slots are busy wait in a bounded queue; beyond this
      depth they are *shed* with ``429`` + ``Retry-After`` instead of
      queueing without bound.
    """

    def __init__(self, service: DahliaService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8, threads: int | None = None,
                 sock: socket.socket | None = None,
                 request_timeout: float | None = None,
                 queue_depth: int | None = None) -> None:
        self.service = service or DahliaService()
        self.host = host
        self.port = port                      # 0 = ephemeral; set by start
        self.max_inflight = max(1, max_inflight)
        self.request_timeout = (None if not request_timeout
                                else float(request_timeout))
        self.queue_depth = (None if queue_depth is None
                            else max(0, int(queue_depth)))
        self._queued = 0                      # POSTs waiting for a slot
        self._threads = threads or max(2, min(self.max_inflight,
                                              (os.cpu_count() or 1) * 2))
        self._sock = sock                     # pre-bound (prefork workers)
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._heartbeat: asyncio.Task | None = None

    async def start(self) -> None:
        self.service.inflight_limit = self.max_inflight
        faults = fault_stats()
        sample = self.service.trace_sample
        self.service.limits = {
            "request_timeout_s": self.request_timeout,
            "queue_depth": self.queue_depth,
            "fault_plan": faults["plan"] if faults else None,
            "trace_sample": (telemetry.default_sample_rate()
                             if sample is None else sample),
            "slow_request_ms": self.service.slow_request_ms,
        }
        # Spool finished traces for the fleet for this server's
        # lifetime (no-op for unspooled services).
        telemetry.add_exporter(self.service.export_trace)
        self._executor = ThreadPoolExecutor(
            max_workers=self._threads, thread_name_prefix="dahlia-svc")
        self._semaphore = asyncio.Semaphore(self.max_inflight)
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self._sock)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.service.board is not None:
            self.service.publish_stats()      # appear on the board now
            self._heartbeat = asyncio.get_running_loop().create_task(
                self._heartbeat_loop())

    async def _heartbeat_loop(self) -> None:
        """Keep this worker's board entry fresh while idle."""
        while True:
            await asyncio.sleep(HEARTBEAT_S)
            self.service.publish_stats()

    async def stop(self) -> None:
        telemetry.remove_exporter(self.service.export_trace)
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat
            self._heartbeat = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _should_shed(self) -> bool:
        """Is the bounded accept queue past its watermark?"""
        assert self._semaphore is not None
        return (self.queue_depth is not None
                and self._queued >= self.queue_depth
                and self._semaphore.locked())

    def _route_budget(self, path: str) -> float | None:
        """Seconds of budget for ``path`` (``None`` = no deadline)."""
        if self.request_timeout is None:
            return None
        factor = DSE_BUDGET_FACTOR if path == "/dse" else 1.0
        return self.request_timeout * factor

    def _handle_with_deadline(self, budget: float, method: str,
                              path: str, body: bytes,
                              request_id: str | None) -> tuple[int, Any]:
        """Executor entry: arm the cooperative token, then dispatch."""
        with deadline_scope(Deadline(budget)):
            return self.service.handle(method, path, body, request_id)

    async def _dispatch_post(self, loop: asyncio.AbstractEventLoop,
                             method: str, path: str, body: bytes,
                             request_id: str | None) -> tuple[int, Any]:
        """Run one POST on the executor, under the route's budget.

        Cooperative cancellation normally answers from inside the
        handler (a structured 503 from ``DahliaService.handle``). If
        the thread is stuck in non-cooperative code, the transport
        stops waiting ``DEADLINE_GRACE_S`` past the budget and answers
        the 503 itself; the orphaned thread's eventual result is
        discarded (every stage is pure, so the waste is bounded CPU,
        not corrupted state).
        """
        assert self._executor is not None
        budget = self._route_budget(path)
        if budget is None:
            return await loop.run_in_executor(
                self._executor, self.service.handle, method, path, body,
                request_id)
        future = loop.run_in_executor(
            self._executor, self._handle_with_deadline,
            budget, method, path, body, request_id)
        done, _ = await asyncio.wait({future},
                                     timeout=budget + DEADLINE_GRACE_S)
        if done:
            return future.result()
        # Consume the orphan's eventual outcome so an exception in the
        # abandoned thread never surfaces as an unretrieved-future
        # warning.
        future.add_done_callback(
            lambda f: f.cancelled() or f.exception())
        self.service.record_deadline(path)
        return 503, {
            "ok": False,
            "error": f"request deadline exceeded "
                     f"(budget {budget:g}s)",
            "deadline_exceeded": True,
            "budget_s": budget,
        }

    async def _stream_dse(self, loop: asyncio.AbstractEventLoop,
                          writer: asyncio.StreamWriter, body: bytes,
                          request_id: str, keep_alive: bool,
                          response_headers: Mapping[str, str]) -> None:
        """Serve one streaming ``/dse`` request as chunked NDJSON.

        The frontier search runs on the executor and emits events into
        an asyncio queue (thread → loop via ``call_soon_threadsafe``);
        a sentinel follows the handler's completion. The first event
        decides the wire format: an ``error`` event becomes a normal
        buffered response with its real status code (nothing has been
        written yet), anything else opens a chunked 200 and every
        event — frontier updates, then the final ``result`` (or a
        mid-stream ``error``, e.g. a deadline that expired between
        batches) — is one JSON line in its own chunk. The cooperative
        deadline is armed exactly as on the buffered path; there is no
        transport backstop for streams, because the search checks the
        deadline every batch.
        """
        def run(emit: Any) -> None:
            budget = self._route_budget("/dse")
            scope = (deadline_scope(Deadline(budget))
                     if budget is not None
                     else contextlib.nullcontext())
            with scope:
                self.service.dse_stream(body, emit, request_id)

        await self._stream_events(loop, writer, run, keep_alive,
                                  response_headers)

    async def _stream_job(self, loop: asyncio.AbstractEventLoop,
                          writer: asyncio.StreamWriter, job_id: str,
                          request_id: str, keep_alive: bool,
                          response_headers: Mapping[str, str]) -> None:
        """Serve ``GET /jobs/{id}/stream`` as chunked NDJSON.

        The tail polls the (possibly fleet-shared) job record on the
        executor; the stop event makes a client disconnect release the
        tailing thread instead of letting it follow the job to
        completion for nobody.
        """
        stop = threading.Event()

        def run(emit: Any) -> None:
            self.service.job_stream(job_id, emit, request_id, stop=stop)

        try:
            await self._stream_events(loop, writer, run, keep_alive,
                                      response_headers)
        finally:
            stop.set()

    async def _stream_events(self, loop: asyncio.AbstractEventLoop,
                             writer: asyncio.StreamWriter, run: Any,
                             keep_alive: bool,
                             response_headers: Mapping[str, str]) -> None:
        """Common NDJSON stream transport.

        ``run(emit)`` executes on the executor and emits JSON-ready
        event dicts (thread → loop via ``call_soon_threadsafe``); a
        sentinel follows its completion. The first event decides the
        wire format: an ``error`` event becomes a normal buffered
        response with its real status code (nothing has been written
        yet); anything else opens a chunked 200 and every event is one
        JSON line in its own chunk.
        """
        assert self._executor is not None
        queue: asyncio.Queue = asyncio.Queue()

        def emit(event: dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        future = loop.run_in_executor(self._executor, run, emit)

        def finish(f: Any) -> None:
            # Runs on the loop, after every emit already queued from
            # the handler thread — FIFO makes the sentinel last.
            if not f.cancelled():
                f.exception()      # consume; the service never raises
            queue.put_nowait(None)

        future.add_done_callback(finish)
        first = await queue.get()
        if first is None:                     # pragma: no cover — the
            # service layer never raises, so an empty stream means the
            # executor thread itself died; answer a plain 500.
            data = encode_payload({"ok": False,
                                   "error": "stream produced no events"})
            writer.write(_response_bytes(500, data, keep_alive,
                                         response_headers))
            await writer.drain()
            return
        if first.get("type") == "error":
            # Failed before any frontier output: the client gets an
            # ordinary response with the real status, byte-identical
            # to the buffered path's error envelope.
            status = int(first.get("status", 500))
            data = encode_payload(first.get("payload"))
            writer.write(_response_bytes(status, data, keep_alive,
                                         response_headers))
            await writer.drain()
            while await queue.get() is not None:
                pass
            return
        writer.write(_stream_head(keep_alive, response_headers))
        event: dict | None = first
        while event is not None:
            line = (json.dumps(event) + "\n").encode()
            writer.write(_chunk_bytes(line))
            await writer.drain()
            event = await queue.get()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (BadRequest, ValueError) as error:
                    # ValueError covers asyncio's LimitOverrunError
                    # when a request or header line exceeds the
                    # StreamReader's 64 KiB limit.
                    body = encode_payload({"ok": False, "error": str(error)})
                    writer.write(_response_bytes(400, body, False))
                    await writer.drain()
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection",
                                         "").lower() != "close"
                # The client's correlation id (minted here when the
                # client sent none) is the trace id for POSTs and is
                # echoed back on every response, so client-side logs
                # join server-side traces.
                request_id = (headers.get("x-request-id", "").strip()
                              or telemetry.new_id())
                loop = asyncio.get_running_loop()
                assert self._semaphore and self._executor
                response_headers: dict[str, str] = {
                    "X-Request-Id": request_id}
                if method == "GET" and _job_stream_id(path) is not None:
                    # Tail an async job as chunked NDJSON. Like other
                    # GETs this bypasses the admission semaphore — the
                    # tail is I/O-bound polling, not pipeline work, and
                    # a stuck fleet must stay observable.
                    await self._stream_job(
                        loop, writer, _job_stream_id(path) or "",
                        request_id, keep_alive,
                        {"X-Request-Id": request_id})
                    if not keep_alive:
                        break
                    continue
                if method == "GET":
                    # Probes (/healthz, /metrics, /stages) bypass the
                    # semaphore so they answer even when every slot is
                    # held by a long-running sweep. On a boarded worker
                    # they also read/publish board files, so they run
                    # on the executor to keep the accept loop clean.
                    if self.service.board is not None:
                        status, payload = await loop.run_in_executor(
                            self._executor, self.service.handle,
                            method, path, body, request_id)
                    else:
                        status, payload = self.service.handle(
                            method, path, body, request_id)
                elif self._should_shed():
                    # Admission control: every slot is busy and the
                    # wait queue is at its watermark — shed with 429
                    # rather than queueing without bound.
                    self.service.record_shed(path)
                    status = 429
                    payload = {
                        "ok": False,
                        "error": "server overloaded: request shed by "
                                 "admission control",
                        "shed": True,
                        "retry_after_s": RETRY_AFTER_S,
                    }
                    response_headers["Retry-After"] = str(
                        max(1, round(RETRY_AFTER_S)))
                elif method == "POST" and \
                        _wants_stream(path.partition("?")[0], body):
                    # Streaming /dse: same admission slot as any POST,
                    # but the response is written incrementally inside
                    # _stream_dse (chunked NDJSON), so there is
                    # nothing to encode below — continue to the next
                    # keep-alive request directly.
                    self._queued += 1
                    try:
                        await self._semaphore.acquire()
                    finally:
                        self._queued -= 1
                    try:
                        await self._stream_dse(
                            loop, writer, body, request_id, keep_alive,
                            {"X-Request-Id": request_id})
                    finally:
                        self._semaphore.release()
                    if self.service.board is not None:
                        await loop.run_in_executor(
                            self._executor, self.service.publish_stats)
                    if not keep_alive:
                        break
                    continue
                else:
                    self._queued += 1
                    try:
                        await self._semaphore.acquire()
                    finally:
                        self._queued -= 1
                    try:
                        status, payload = await self._dispatch_post(
                            loop, method, path, body, request_id)
                    finally:
                        self._semaphore.release()
                    if self.service.board is not None:
                        # Publish before responding so a client that saw
                        # this response observes it in fleet /metrics —
                        # on the executor, so the board's file I/O never
                        # stalls the accept loop.
                        await loop.run_in_executor(
                            self._executor, self.service.publish_stats)
                if isinstance(payload, RawPayload):
                    # The /cas blob exchange: raw bytes, not JSON.
                    raw_headers = dict(response_headers)
                    raw_headers.update(payload.headers or {})
                    writer.write(_response_bytes(
                        status, payload.body, keep_alive, raw_headers,
                        content_type=payload.content_type))
                else:
                    data = encode_payload(payload)
                    writer.write(_response_bytes(status, data, keep_alive,
                                                 response_headers))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass                              # client went away mid-request
        except asyncio.CancelledError:
            # Server shutdown cancels connections parked on a read
            # (keep-alive clients leave one parked per connection).
            # Completing normally here keeps asyncio.streams' task
            # done-callback from re-raising the cancellation into the
            # loop's exception handler on 3.11.
            pass
        finally:
            # CancelledError is a BaseException: a shutdown cancel
            # landing while this drain awaits must not resurrect the
            # cancellation the handler above already absorbed.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()


class BackgroundServer:
    """Run a :class:`ServiceServer` on a daemon thread (tests, benches).

    ::

        with BackgroundServer() as server:
            client = ServiceClient(port=server.port)
    """

    def __init__(self, service: DahliaService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8,
                 request_timeout: float | None = None,
                 queue_depth: int | None = None,
                 threads: int | None = None) -> None:
        self.server = ServiceServer(service, host, port, max_inflight,
                                    request_timeout=request_timeout,
                                    queue_depth=queue_depth,
                                    threads=threads)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._crash_error: BaseException | None = None

    @property
    def service(self) -> DahliaService:
        return self.server.service

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:        # surface bind failures
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        except BaseException as error:        # surface serve-loop crashes
            self._crash_error = error
        finally:
            try:
                loop.run_until_complete(self.server.stop())
                # Idle keep-alive connections leave handler tasks parked
                # on a read; cancel them so the loop closes without
                # warnings.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
            except BaseException as error:
                if self._crash_error is None:
                    self._crash_error = error
            finally:
                loop.close()

    def start(self) -> "BackgroundServer":
        """Start the server thread; raise if it fails to come up.

        A dead thread is an *error*, never a silent 30-second timeout:
        bind failures, import errors, and anything else that kills the
        thread before (or while) serving propagate to the caller.
        """
        self._thread = threading.Thread(target=self._run,
                                        name="dahlia-server", daemon=True)
        self._thread.start()
        ready = self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        if not ready or not self._thread.is_alive():
            self._thread.join(timeout=1)
            raise RuntimeError(
                "server thread died before signalling readiness"
                if not self._thread.is_alive()
                else "server thread failed to become ready within 30s") \
                from self._crash_error
        return self

    def stop(self) -> None:
        """Stop the server thread; raise if it crashed or won't die."""
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():
                raise RuntimeError(
                    "server thread failed to stop within 30s")
        if self._crash_error is not None:
            raise RuntimeError("server thread crashed while serving") \
                from self._crash_error

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        if exc_info and exc_info[0] is not None:
            # The with-body already failed; don't let a teardown error
            # mask the original exception.
            with contextlib.suppress(Exception):
                self.stop()
        else:
            self.stop()


# ---------------------------------------------------------------------------
# The prefork multi-process entry point.
# ---------------------------------------------------------------------------

@dataclass
class _WorkerConfig:
    """Everything a worker process needs (picklable for ``spawn``)."""

    worker: int
    host: str
    port: int
    capacity: int
    max_inflight: int
    dse_workers: int | None
    cache_dir: str | None
    cache_bytes: int
    board_dir: str
    reuse_port: bool
    request_timeout: float | None = None
    queue_depth: int | None = None
    fault_plan: str | None = None
    trace_sample: float | None = None
    slow_request_ms: float | None = None
    max_sessions: int = DEFAULT_SESSION_CAPACITY
    session_ttl: float = DEFAULT_SESSION_TTL_S
    peers: tuple[str, ...] | None = None


def _bind_socket(host: str, port: int, *, reuse_port: bool,
                 listen: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(config: _WorkerConfig,
                 listen_sock: socket.socket | None) -> None:
    """One prefork worker: its own service, cache view, and board file.

    ``listen_sock`` is the parent's listening socket on the
    fd-inheritance path; on the ``SO_REUSEPORT`` path it is ``None``
    and the worker binds its own socket to the already-resolved port.
    """
    import signal

    # A respawned worker forked after the supervisor installed its
    # shutdown handler would inherit it — SIGTERM would then set a
    # useless copy of the parent's stop event instead of terminating.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if config.fault_plan:
        from ..util.faults import FaultPlan, install_plan

        install_plan(FaultPlan.from_file(config.fault_plan))
    board = WorkerBoard(config.board_dir, worker=config.worker)
    service = DahliaService(
        capacity=config.capacity, dse_workers=config.dse_workers,
        cache_dir=config.cache_dir, cache_bytes=config.cache_bytes,
        board=board, trace_sample=config.trace_sample,
        slow_request_ms=config.slow_request_ms,
        trace_dir=Path(config.board_dir) / "traces",
        max_sessions=config.max_sessions,
        session_ttl=config.session_ttl,
        session_dir=Path(config.board_dir) / "sessions",
        peers=config.peers,
        job_dir=Path(config.board_dir) / "jobs")

    async def run() -> None:
        sock = listen_sock
        if sock is None:
            sock = _bind_socket(config.host, config.port,
                                reuse_port=True, listen=True)
        server = ServiceServer(service, config.host, config.port,
                               max_inflight=config.max_inflight, sock=sock,
                               request_timeout=config.request_timeout,
                               queue_depth=config.queue_depth)
        await server.start()
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _serve_prefork(host: str, port: int, *, capacity: int,
                   max_inflight: int, dse_workers: int | None,
                   workers: int, cache_dir: str | None,
                   cache_bytes: int,
                   request_timeout: float | None = None,
                   queue_depth: int | None = None,
                   fault_plan: str | None = None,
                   trace_sample: float | None = None,
                   slow_request_ms: float | None = None,
                   max_sessions: int = DEFAULT_SESSION_CAPACITY,
                   session_ttl: float = DEFAULT_SESSION_TTL_S,
                   peers: tuple[str, ...] | None = None) -> None:
    """Supervise a fleet of worker processes sharing one port."""
    import multiprocessing
    import signal

    reuse_port = hasattr(socket, "SO_REUSEPORT")
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        context = multiprocessing.get_context("fork")
    elif reuse_port:
        context = multiprocessing.get_context("spawn")
    else:                                     # pragma: no cover — exotic
        print("warning: neither fork nor SO_REUSEPORT available; "
              "serving single-process", flush=True)
        return _serve_single(host, port, capacity=capacity,
                             max_inflight=max_inflight,
                             dse_workers=dse_workers,
                             cache_dir=cache_dir, cache_bytes=cache_bytes,
                             request_timeout=request_timeout,
                             queue_depth=queue_depth,
                             fault_plan=fault_plan,
                             trace_sample=trace_sample,
                             slow_request_ms=slow_request_ms,
                             max_sessions=max_sessions,
                             session_ttl=session_ttl, peers=peers)

    if reuse_port:
        # Bind (without listening) to resolve the port and hold it for
        # respawns; every worker binds its own SO_REUSEPORT socket and
        # the kernel load-balances accepted connections across them.
        guard = _bind_socket(host, port, reuse_port=True, listen=False)
        listen_sock: socket.socket | None = None
    else:
        # No SO_REUSEPORT: bind + listen once and let every forked
        # worker accept on the inherited descriptor.
        guard = _bind_socket(host, port, reuse_port=False, listen=True)
        listen_sock = guard
    port = guard.getsockname()[1]

    board_is_temp = cache_dir is None
    board_dir = (Path(tempfile.mkdtemp(prefix="dahlia-board-"))
                 if board_is_temp else Path(cache_dir) / "workers")
    board_dir.mkdir(parents=True, exist_ok=True)
    # A previous fleet's records would report its dead workers.
    for stale in board_dir.glob("*.json"):
        with contextlib.suppress(OSError):
            stale.unlink()

    def spawn(index: int):
        config = _WorkerConfig(
            worker=index, host=host, port=port, capacity=capacity,
            max_inflight=max_inflight, dse_workers=dse_workers,
            cache_dir=cache_dir, cache_bytes=cache_bytes,
            board_dir=str(board_dir), reuse_port=reuse_port,
            request_timeout=request_timeout, queue_depth=queue_depth,
            fault_plan=fault_plan, trace_sample=trace_sample,
            slow_request_ms=slow_request_ms,
            max_sessions=max_sessions, session_ttl=session_ttl,
            peers=tuple(peers) if peers else None)
        process = context.Process(target=_worker_main,
                                  args=(config, listen_sock),
                                  name=f"dahlia-worker-{index}")
        process.start()
        return process, time.monotonic()

    fleet = {}
    spawned_at = {}
    for index in range(workers):
        fleet[index], spawned_at[index] = spawn(index)
    fast_deaths = {index: 0 for index in range(workers)}
    stop = threading.Event()

    def request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)

    tier = f"disk tier {cache_dir}" if cache_dir else "memory-only cache"
    print(f"dahlia-py service listening on http://{host}:{port} "
          f"({workers} workers via "
          f"{'SO_REUSEPORT' if reuse_port else 'shared listener'}, "
          f"{tier}, max in-flight {max_inflight}/worker)", flush=True)

    try:
        while not stop.is_set():
            stop.wait(timeout=1.0)
            for index, process in list(fleet.items()):
                if process.is_alive() or stop.is_set():
                    continue
                # Crash-loop guard: a worker that keeps dying within
                # seconds of starting (bad cache dir, import error, …)
                # will never serve; surface the failure instead of
                # respawning forever.
                if time.monotonic() - spawned_at[index] < _FAST_DEATH_S:
                    fast_deaths[index] += 1
                else:
                    fast_deaths[index] = 0
                if fast_deaths[index] >= _MAX_FAST_DEATHS:
                    raise RuntimeError(
                        f"worker {index} died {fast_deaths[index]} times "
                        f"within {_FAST_DEATH_S}s of spawning (last exit "
                        f"code {process.exitcode}); giving up")
                print(f"worker {index} (pid {process.pid}) died with "
                      f"exit code {process.exitcode}; respawning",
                      flush=True)
                fleet[index], spawned_at[index] = spawn(index)
    finally:
        for process in fleet.values():
            if process.is_alive():
                process.terminate()
        for process in fleet.values():
            process.join(timeout=10)
        guard.close()
        if board_is_temp:
            import shutil

            shutil.rmtree(board_dir, ignore_errors=True)


def _serve_single(host: str, port: int, *, capacity: int,
                  max_inflight: int, dse_workers: int | None,
                  cache_dir: str | None, cache_bytes: int,
                  request_timeout: float | None = None,
                  queue_depth: int | None = None,
                  fault_plan: str | None = None,
                  trace_sample: float | None = None,
                  slow_request_ms: float | None = None,
                  max_sessions: int = DEFAULT_SESSION_CAPACITY,
                  session_ttl: float = DEFAULT_SESSION_TTL_S,
                  peers: tuple[str, ...] | None = None) -> None:
    if fault_plan:
        from ..util.faults import FaultPlan, install_plan

        install_plan(FaultPlan.from_file(fault_plan))
    # Spooled jobs need a directory; ride the cache dir so restarts
    # (and CLI inspection) resolve the same records. Memory-only
    # deployments keep jobs process-local.
    job_dir = Path(cache_dir) / "jobs" if cache_dir else None
    service = DahliaService(capacity=capacity, dse_workers=dse_workers,
                            cache_dir=cache_dir, cache_bytes=cache_bytes,
                            trace_sample=trace_sample,
                            slow_request_ms=slow_request_ms,
                            max_sessions=max_sessions,
                            session_ttl=session_ttl,
                            peers=peers, job_dir=job_dir)

    async def main() -> None:
        server = ServiceServer(service, host, port,
                               max_inflight=max_inflight,
                               request_timeout=request_timeout,
                               queue_depth=queue_depth)
        await server.start()
        tier = f"disk tier {cache_dir}" if cache_dir else "memory-only cache"
        print(f"dahlia-py service listening on "
              f"http://{server.host}:{server.port} "
              f"(cache capacity {capacity}, {tier}, "
              f"max in-flight {max_inflight})", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


def serve(host: str = "127.0.0.1", port: int = 8080, *,
          capacity: int = 512, max_inflight: int = 8,
          dse_workers: int | None = 1, workers: int = 1,
          cache_dir: str | Path | None = None,
          cache_bytes: int = DEFAULT_DISK_BYTES,
          request_timeout: float | None = None,
          queue_depth: int | None = None,
          fault_plan: str | None = None,
          trace_sample: float | None = None,
          slow_request_ms: float | None = None,
          max_sessions: int = DEFAULT_SESSION_CAPACITY,
          session_ttl: float = DEFAULT_SESSION_TTL_S,
          peers: list[str] | tuple[str, ...] | None = None) -> None:
    """Blocking entry point behind ``dahlia-py serve``.

    ``workers > 1`` preforks that many serving processes sharing the
    port and — when ``cache_dir`` is set — the persistent artifact
    tier. ``cache_dir`` defaults to ``$REPRO_CACHE_DIR`` when that is
    set, else the cache is memory-only. ``request_timeout`` arms a
    per-request deadline budget, ``queue_depth`` bounds the accept
    queue (excess requests are shed with 429), and ``fault_plan``
    names a JSON fault plan installed in every serving process.
    ``trace_sample`` sets the request-trace sampling rate (default:
    ``$REPRO_TRACE_SAMPLE`` or 1.0) and ``slow_request_ms`` arms the
    slow-request log — see docs/observability.md. ``peers`` lists
    other fleet nodes (``HOST:PORT``) whose ``/cas`` routes are probed
    on local cache misses — see docs/operations.md.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    cache_dir = str(cache_dir) if cache_dir else None
    peer_tuple = tuple(peers) if peers else None
    workers = max(1, workers)
    if workers == 1:
        _serve_single(host, port, capacity=capacity,
                      max_inflight=max_inflight, dse_workers=dse_workers,
                      cache_dir=cache_dir, cache_bytes=cache_bytes,
                      request_timeout=request_timeout,
                      queue_depth=queue_depth, fault_plan=fault_plan,
                      trace_sample=trace_sample,
                      slow_request_ms=slow_request_ms,
                      max_sessions=max_sessions, session_ttl=session_ttl,
                      peers=peer_tuple)
    else:
        _serve_prefork(host, port, capacity=capacity,
                       max_inflight=max_inflight, dse_workers=dse_workers,
                       workers=workers, cache_dir=cache_dir,
                       cache_bytes=cache_bytes,
                       request_timeout=request_timeout,
                       queue_depth=queue_depth, fault_plan=fault_plan,
                       trace_sample=trace_sample,
                       slow_request_ms=slow_request_ms,
                       max_sessions=max_sessions,
                       session_ttl=session_ttl,
                       peers=peer_tuple)
