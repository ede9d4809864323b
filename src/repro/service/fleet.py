"""``serve``: one serving process, or a prefork fleet and its board.

``dahlia-py serve --workers N`` preforks ``N`` identical worker
processes sharing one listening port — each worker binds its own
``SO_REUSEPORT`` socket where the platform supports it, otherwise all
workers accept on a single listening socket inherited over ``fork``.
Workers share the *persistent artifact tier* (``--cache-dir``), so any
worker can serve any other worker's cached stage results, and publish
their per-process statistics to a :class:`WorkerBoard` (one spooled
JSON record per worker, atomic rename) from which any worker answers
``/metrics`` with fleet-aggregated numbers and ``/healthz`` with
per-worker liveness. The parent process only supervises: it respawns
workers that die. With one worker, the same worker body runs in
process, without a board. One :class:`ServeConfig` carries every
setting from the CLI to each worker.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from ..util import telemetry
from ..util.spool import Spool, pid_alive
from .artifacts import DEFAULT_DISK_BYTES
from .server import DahliaService
from .session import DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL_S
from .transport import HEARTBEAT_S, ServiceServer

#: A worker whose stats file is older than this many heartbeats is
#: reported stale even if its pid still exists (e.g. a hung process).
_STALE_HEARTBEATS = 5

#: A worker death this soon after its spawn counts toward the
#: supervisor's crash-loop guard; this many in a row aborts the fleet.
_FAST_DEATH_S = 5.0
_MAX_FAST_DEATHS = 5


@dataclass(frozen=True)
class ServeConfig:
    """Every ``serve`` setting (picklable for ``spawn``).

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

    host: str = "127.0.0.1"
    port: int = 8080
    capacity: int = 512
    max_inflight: int = 8
    dse_workers: int | None = 1
    workers: int = 1
    cache_dir: str | None = None
    cache_bytes: int = DEFAULT_DISK_BYTES
    request_timeout: float | None = None
    queue_depth: int | None = None
    fault_plan: str | None = None
    trace_sample: float | None = None
    slow_request_ms: float | None = None
    max_sessions: int = DEFAULT_SESSION_CAPACITY
    session_ttl: float = DEFAULT_SESSION_TTL_S
    peers: tuple[str, ...] | None = None


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

    def fleet_metrics(self, local: dict) -> dict:
        """A boarded ``/metrics``: fleet totals over every record, and
        the answering worker's own (``local``) per-process keys."""
        records = self.read_all()
        return {
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
            **_aggregate_metrics(records),
        }


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


def _worker_main(config: ServeConfig, board_dir: Path | None = None,
                 worker: int = 0,
                 listen_sock: socket.socket | None = None) -> None:
    """One serving process: its own service and cache view.

    Without ``board_dir`` this is single-process serving. A fleet
    worker also gets a board record and the fleet's spools, and binds
    its own ``SO_REUSEPORT`` socket unless handed the parent's
    ``listen_sock`` (the fd-inheritance path).
    """
    if board_dir is None:
        # Spooled jobs need a directory; ride the cache dir so restarts
        # (and CLI inspection) resolve the same records. Memory-only
        # deployments keep jobs process-local.
        board = None
        spools = {"job_dir": (Path(config.cache_dir) / "jobs"
                              if config.cache_dir else None)}
    else:
        import signal

        # A respawned worker forked after the supervisor installed its
        # shutdown handler would inherit it — SIGTERM would then set a
        # useless copy of the parent's stop event instead of
        # terminating.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        board = WorkerBoard(board_dir, worker=worker)
        spools = {"trace_dir": board_dir / "traces",
                  "session_dir": board_dir / "sessions",
                  "job_dir": board_dir / "jobs"}
    if config.fault_plan:
        from ..util.faults import FaultPlan, install_plan

        install_plan(FaultPlan.from_file(config.fault_plan))
    service = DahliaService(
        capacity=config.capacity, dse_workers=config.dse_workers,
        cache_dir=config.cache_dir, cache_bytes=config.cache_bytes,
        board=board, trace_sample=config.trace_sample,
        slow_request_ms=config.slow_request_ms,
        max_sessions=config.max_sessions,
        session_ttl=config.session_ttl, peers=config.peers, **spools)

    async def run() -> None:
        sock = listen_sock
        if sock is None and board is not None:
            sock = _bind_socket(config.host, config.port,
                                reuse_port=True, listen=True)
        server = ServiceServer(service, config.host, config.port,
                               max_inflight=config.max_inflight, sock=sock,
                               request_timeout=config.request_timeout,
                               queue_depth=config.queue_depth)
        await server.start()
        if board is None:
            print(f"dahlia-py service listening on "
                  f"http://{server.host}:{server.port} "
                  f"(cache capacity {config.capacity}, "
                  f"{_tier(config)}, "
                  f"max in-flight {config.max_inflight})", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _tier(config: ServeConfig) -> str:
    return (f"disk tier {config.cache_dir}" if config.cache_dir
            else "memory-only cache")


def _serve_prefork(config: ServeConfig) -> None:
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
        return _worker_main(config)

    if reuse_port:
        # Bind (without listening) to resolve the port and hold it for
        # respawns; every worker binds its own SO_REUSEPORT socket and
        # the kernel load-balances accepted connections across them.
        guard = _bind_socket(config.host, config.port, reuse_port=True,
                             listen=False)
        listen_sock: socket.socket | None = None
    else:
        # No SO_REUSEPORT: bind + listen once and let every forked
        # worker accept on the inherited descriptor.
        guard = _bind_socket(config.host, config.port, reuse_port=False,
                             listen=True)
        listen_sock = guard
    config = replace(config, port=guard.getsockname()[1])

    board_is_temp = config.cache_dir is None
    board_dir = (Path(tempfile.mkdtemp(prefix="dahlia-board-"))
                 if board_is_temp else Path(config.cache_dir) / "workers")
    board_dir.mkdir(parents=True, exist_ok=True)
    # A previous fleet's records would report its dead workers.
    for stale in board_dir.glob("*.json"):
        with contextlib.suppress(OSError):
            stale.unlink()

    def spawn(index: int):
        process = context.Process(
            target=_worker_main,
            args=(config, board_dir, index, listen_sock),
            name=f"dahlia-worker-{index}")
        process.start()
        return process, time.monotonic()

    fleet = {}
    spawned_at = {}
    for index in range(config.workers):
        fleet[index], spawned_at[index] = spawn(index)
    fast_deaths = {index: 0 for index in range(config.workers)}
    stop = threading.Event()

    def request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)

    print(f"dahlia-py service listening on "
          f"http://{config.host}:{config.port} "
          f"({config.workers} workers via "
          f"{'SO_REUSEPORT' if reuse_port else 'shared listener'}, "
          f"{_tier(config)}, max in-flight {config.max_inflight}/worker)",
          flush=True)

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


def serve(config: ServeConfig) -> None:
    """Blocking entry point behind ``dahlia-py serve`` (see
    :class:`ServeConfig` for the settings)."""
    cache_dir = (config.cache_dir if config.cache_dir is not None
                 else os.environ.get("REPRO_CACHE_DIR"))
    config = replace(config, cache_dir=str(cache_dir) if cache_dir else None)
    if config.workers > 1:
        _serve_prefork(config)
    else:
        _worker_main(config)
