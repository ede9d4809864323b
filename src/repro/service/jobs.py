"""Asynchronous ``/dse`` jobs: spooled, coalescing, restart-tolerant.

A sweep over tens of thousands of design points is minutes of work;
holding an HTTP request open for it wastes a connection and dies with
it. ``POST /dse {"async": true}`` instead registers a **job** and
returns its id immediately; ``GET /jobs/{id}`` polls status and
result, and ``GET /jobs/{id}/stream`` tails the same monotone-
versioned frontier updates the synchronous streaming path emits.

Three properties drive the design:

* **deterministic identity** — a job's id is a content hash of its
  canonicalized sweep parameters (:func:`job_id_for`). Identical
  submissions *are* the same job, so a thundering herd of clients
  asking for the same sweep coalesces onto one record and one compute
  — the job-level counterpart of the pipeline's singleflight.
* **filesystem-only coordination** — job records live in a
  :class:`~repro.util.spool.Spool` (one JSON file per job,
  write-then-rename), so a prefork fleet's round-robin routing
  resolves any job from any worker, and records survive node
  restarts. A queued or running job with a live owner is never
  pruned, however many finished records a peer spools after it.
* **orphan detection** — records carry their owner's pid; a reader
  that finds a ``queued``/``running`` record whose owner is gone
  marks it ``error`` instead of letting clients poll a ghost forever.
  A re-submission of the same parameters then adopts the id and
  reruns.

Workers are plain daemon threads gated by a bounded semaphore — no
``ThreadPoolExecutor``, whose atexit join would block interpreter
shutdown on a long sweep.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from ..util.hashing import content_key, options_fingerprint
from ..util.spool import Spool, pid_alive

logger = logging.getLogger(__name__)

__all__ = ["JobManager", "job_id_for"]

#: Simultaneously *running* jobs per process; excess jobs queue.
DEFAULT_JOB_SLOTS = 2

#: Frontier updates retained per job record (the stream replays from
#: the record, so this bounds both spool-file size and replay length).
MAX_UPDATES = 200

#: Poll interval while tailing a job owned by another process.
_TAIL_POLL_S = 0.05


def job_id_for(params: Mapping[str, Any]) -> str:
    """Deterministic job id: a content hash of the sweep parameters.

    Rides :func:`~repro.util.hashing.options_fingerprint`, so key
    order and JSON formatting cannot split identical submissions into
    distinct jobs.
    """
    return content_key("dse_job", options_fingerprint(params))[:16]


def _in_flight(record: Mapping[str, Any]) -> bool:
    return record.get("state") in ("queued", "running")


def _live(record: Mapping[str, Any]) -> bool:
    """Queued or running under a live owner: the spool keeps it."""
    return _in_flight(record) and pid_alive(int(record.get("pid", -1)))


class JobManager:
    """Owns job lifecycle: submit → queued → running → done | error.

    ``runner(params, on_update) -> payload`` performs the actual sweep
    (the service supplies it); ``on_update`` receives each frontier
    update dict. With a ``spool_dir`` every state change is mirrored
    to the spool so any process can answer for any job; without one,
    records are process-local (single-node, memory-only deployments).
    """

    def __init__(self, runner: Callable[[dict, Callable[[dict], None]],
                                        dict],
                 spool_dir: str | Path | None = None,
                 max_parallel: int = DEFAULT_JOB_SLOTS) -> None:
        self._runner = runner
        self.spool = (Spool(spool_dir, "job", live=_live)
                      if spool_dir else None)
        self._records: dict[str, dict] = {}   # jobs owned by this process
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(max(1, max_parallel))
        self.submitted = 0
        self.coalesced = 0
        self.completed = 0
        self.failed = 0

    # -- submission ---------------------------------------------------------

    def submit(self, params: dict) -> tuple[dict, bool]:
        """Register (or coalesce onto) the job for ``params``.

        Returns ``(record, coalesced)``. A live record for the same
        parameters — owned by this process or any fleet peer — is
        returned as-is; a dead owner's record is adopted and rerun.
        """
        job_id = job_id_for(params)
        record = {
            "job": job_id,
            "state": "queued",
            "space": params.get("space"),
            "mode": params.get("mode"),
            "params": dict(params),
            "pid": os.getpid(),
            "created": time.time(),
            "updated": time.time(),
            "frontier_version": 0,
            "updates": [],
        }
        existing = self._claim(job_id, record)
        if existing is not None:
            with self._lock:
                self.coalesced += 1
            return existing, True
        with self._lock:
            self.submitted += 1
        # Snapshot before the worker thread starts: the submission
        # response always reports the freshly-queued state, never a
        # race-dependent "running".
        snapshot = self._snapshot(record)
        thread = threading.Thread(
            target=self._execute, args=(job_id, dict(params)),
            name=f"dahlia-job-{job_id}", daemon=True)
        thread.start()
        return snapshot, False

    @staticmethod
    def _snapshot(record: Mapping[str, Any]) -> dict:
        """Copy a record without sharing its mutable updates list."""
        snapshot = dict(record)
        snapshot["updates"] = list(record.get("updates", []))
        return snapshot

    def _claim(self, job_id: str, record: dict) -> dict | None:
        """Install ``record`` unless a live record already exists.

        Returns the existing record when the submission coalesces,
        ``None`` when this process now owns the job.
        """
        with self._lock:
            mine = self._records.get(job_id)
            if mine is not None and not self._orphaned(mine):
                return self._snapshot(mine)
            self._records[job_id] = record
        if self.spool is None:
            return None
        if self.spool.create(record):
            return None
        existing = self.spool.read(job_id)
        if existing is not None and not self._orphaned(existing):
            with self._lock:
                # Another worker owns it — drop our provisional claim.
                if self._records.get(job_id) is record:
                    del self._records[job_id]
            return existing
        # Dead owner (or torn record): adopt the id and rerun.
        self.spool.write(record)
        return None

    @staticmethod
    def _orphaned(record: Mapping[str, Any]) -> bool:
        """Queued or running, but the owner process is gone."""
        return _in_flight(record) and not _live(record)

    # -- execution (owner process only) -------------------------------------

    def _execute(self, job_id: str, params: dict) -> None:
        with self._slots:
            self._mutate(job_id, state="running")

            def on_update(update: dict) -> None:
                self._append_update(job_id, update)

            try:
                payload = self._runner(params, on_update)
            except BaseException as error:  # noqa: BLE001 — job boundary
                logger.warning("job %s failed: %s", job_id, error)
                with self._lock:
                    self.failed += 1
                self._mutate(job_id, state="error",
                             error=f"{type(error).__name__}: {error}")
                return
            with self._lock:
                self.completed += 1
            self._mutate(job_id, state="done", result=payload)

    def _mutate(self, job_id: str, **changes: Any) -> None:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return
            record.update(changes)
            record["updated"] = time.time()
            snapshot = self._snapshot(record)
        if self.spool is not None:
            self.spool.write(snapshot)

    def _append_update(self, job_id: str, update: dict) -> None:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return
            record["updates"].append(update)
            del record["updates"][:-MAX_UPDATES]
            record["frontier_version"] = max(
                record["frontier_version"],
                int(update.get("version", 0)))
            record["updated"] = time.time()
            snapshot = self._snapshot(record)
        if self.spool is not None:
            self.spool.write(snapshot)

    # -- reads (any process) ------------------------------------------------

    def get(self, job_id: str) -> dict | None:
        """The freshest record for ``job_id``, orphan-checked.

        Local records win (they are strictly fresher than their spool
        mirror); otherwise the spool answers. A record whose owner
        died mid-flight is demoted to ``error`` — and the demotion is
        written back, so every subsequent reader agrees.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is not None:
                return self._snapshot(record)
        if self.spool is None:
            return None
        record = self.spool.read(job_id)
        if record is None:
            return None
        if self._orphaned(record):
            record["state"] = "error"
            record["error"] = ("owner process died before the job "
                               "completed; resubmit to rerun")
            record["updated"] = time.time()
            self.spool.write(record)
        return record

    def list(self, limit: int = 20) -> list[dict]:
        """Newest job records first (fleet-wide when spooled)."""
        with self._lock:
            records = {job_id: self._snapshot(record)
                       for job_id, record in self._records.items()}
        if self.spool is not None:
            for record in self.spool.records():
                records.setdefault(str(record.get("job")), record)
        ordered = sorted(records.values(),
                         key=lambda r: float(r.get("created", 0.0)),
                         reverse=True)
        return ordered[:max(0, limit)]

    def tail(self, job_id: str, emit: Callable[[dict], None],
             stop: threading.Event | None = None) -> int:
        """Replay + follow a job's frontier updates as stream events.

        Emits ``{"type": "frontier", ...}`` for every update version
        not yet seen (monotone — the record's list is version-ordered
        by construction), then a terminal ``result`` or ``error``
        event. Returns the HTTP-ish status of the stream: 404 when the
        job is unknown, 500 when it failed, 200 otherwise. Polling the
        record rather than subscribing is what makes this work across
        processes — the spool is the subscription.
        """
        last_version = 0
        while stop is None or not stop.is_set():
            record = self.get(job_id)
            if record is None:
                emit({"type": "error", "status": 404,
                      "payload": {"ok": False,
                                  "error": f"no such job {job_id!r}"}})
                return 404
            for update in record.get("updates", []):
                version = int(update.get("version", 0))
                if version > last_version:
                    emit({"type": "frontier", **update})
                    last_version = version
            state = record.get("state")
            if state == "done":
                emit({"type": "result",
                      "payload": record.get("result")})
                return 200
            if state == "error":
                emit({"type": "error", "status": 500,
                      "payload": {"ok": False,
                                  "error": record.get("error",
                                                      "job failed")}})
                return 500
            time.sleep(_TAIL_POLL_S)
        return 200

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for record in self._records.values():
                state = str(record.get("state"))
                states[state] = states.get(state, 0) + 1
            return {
                "submitted": self.submitted,
                "coalesced": self.coalesced,
                "completed": self.completed,
                "failed": self.failed,
                "owned": len(self._records),
                "states": states,
            }
