"""Stateful LSP-style edit sessions over the incremental frontend.

A session owns an :class:`~repro.frontend.incremental.
IncrementalDocument`: ``POST /session`` opens it with full source,
``POST /session/{id}`` applies a *versioned* text delta and answers
with a fresh check verdict (byte-identical to a one-shot ``/check`` of
the same text — the verdict is produced by the same
``check_resolved`` + ``check_report_fields`` / ``diagnostic_payload``
helpers the pipeline's ``check_payload`` stage uses), and ``DELETE
/session/{id}`` closes it.

Protocol rules:

* **Versioning** — the client numbers deltas 1, 2, 3…; a delta whose
  ``version`` is not exactly ``current + 1`` is rejected with a
  structured 409 (``stale_version: true``) and the document is left
  untouched, so an out-of-order or duplicated edit can never corrupt
  the buffer.
* **Retry idempotence** — a delta carrying the version the session is
  *already at* and the ``X-Request-Id`` of the request that put it
  there is a client retry of an applied edit (the response was lost in
  flight); the stored response is replayed verbatim.
* **Bounds** — the manager holds at most ``capacity`` sessions
  (least-recently-touched evicted first) and drops sessions idle
  longer than ``ttl_s``.
* **Fleet** — with a ``spool_dir`` (the prefork worker board
  directory), every applied edit is published to a
  :class:`~repro.util.spool.Spool`, so any worker can *hydrate* a
  session another worker owns: requests for an unknown-but-spooled
  session rebuild the document from the spooled text, and a session
  known at an older version fast-forwards by content (unchanged defs
  are still reused). Retried requests replay across workers the same
  way. A record updated within ``ttl_s`` is live and never pruned, so
  a missing record means the session was closed (its record deleted)
  or expired.

While the document has syntax errors the verdict payload carries the
cold parser's exact first diagnostic, plus *per-segment* diagnostics
for every broken def (the recovery a monolithic parse cannot offer)
and, marked ``stale``, the last good verdict with the names of the
segments that broke since.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from ..errors import DahliaError
from ..frontend.incremental import IncrementalDocument
from ..source import SourceFile
from ..util import telemetry
from ..util.diagnostics import diagnostic_payload
from ..util.spool import Spool
from .pipeline import CompilerPipeline, check_report_fields

__all__ = [
    "DEFAULT_SESSION_CAPACITY",
    "DEFAULT_SESSION_TTL_S",
    "EditSession",
    "SessionManager",
    "check_payload_for",
]

DEFAULT_SESSION_CAPACITY = 64
DEFAULT_SESSION_TTL_S = 900.0

#: Client-supplied session ids must be safe to echo and to hash into
#: spool file names; anything else is rejected up front.
_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]{1,64}$")


def check_payload_for(document: IncrementalDocument,
                      pipeline: CompilerPipeline) -> dict:
    """The ``/check`` payload for the document's current text.

    Byte-identical to ``pipeline.run("check_payload", text)`` by
    construction: same verdict store (so per-function reuse carries
    over), same report fields, same diagnostic encoding. The only
    difference is where the AST comes from — here it is the
    incrementally maintained one, which the edit-fuzz harness proves
    indistinguishable from a cold parse.
    """
    from ..types.checker import check_resolved

    if document.error is not None:
        return {"ok": False,
                "diagnostic": diagnostic_payload(
                    document.error, SourceFile(document.text))}
    try:
        report = check_resolved(document.resolved(),
                                store=pipeline.functions)
        return {"ok": True, **check_report_fields(report)}
    except DahliaError as error:
        return {"ok": False,
                "diagnostic": diagnostic_payload(
                    error, SourceFile(document.text))}


class EditSession:
    """One open document plus its protocol state."""

    __slots__ = ("id", "document", "version", "opened_monotonic",
                 "touched", "edits", "last_request_id", "last_response",
                 "last_good", "lock")

    def __init__(self, session_id: str, document: IncrementalDocument,
                 version: int = 0) -> None:
        self.id = session_id
        self.document = document
        self.version = version
        self.opened_monotonic = time.monotonic()
        self.touched = time.monotonic()
        self.edits = 0
        self.last_request_id: str | None = None
        self.last_response: dict | None = None
        #: Last verdict that checked clean: ``{"version", "check"}``.
        self.last_good: dict | None = None
        self.lock = threading.Lock()

    def touch(self) -> None:
        self.touched = time.monotonic()


class SessionManager:
    """The `/session` protocol: bounded, versioned, fleet-aware.

    Every handler returns ``(status, payload)`` — the server maps it
    straight onto the wire, so these payloads *are* the documented
    responses.
    """

    def __init__(self, pipeline: CompilerPipeline, *,
                 capacity: int = DEFAULT_SESSION_CAPACITY,
                 ttl_s: float = DEFAULT_SESSION_TTL_S,
                 spool_dir: str | Path | None = None) -> None:
        self.pipeline = pipeline
        self.capacity = max(1, int(capacity))
        self.ttl_s = float(ttl_s)
        self.spool = (Spool(spool_dir, "id", live=self._fresh)
                      if spool_dir else None)
        self._sessions: dict[str, EditSession] = {}
        self._lock = threading.Lock()
        self._counters = {
            "opened": 0, "closed": 0, "evicted_ttl": 0, "evicted_lru": 0,
            "edits": 0, "stale_rejected": 0, "replayed": 0,
            "hydrated": 0, "synced": 0, "not_found": 0,
        }
        self._segment_totals = {"reparsed": 0, "reused": 0,
                                "relocated": 0}

    # -- counters ------------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[key] += amount

    def _count_segments(self, stats: Mapping[str, int]) -> None:
        with self._lock:
            self._segment_totals["reparsed"] += stats.get("parsed", 0)
            self._segment_totals["reused"] += stats.get("reused", 0)
            self._segment_totals["relocated"] += stats.get("relocated", 0)

    def stats(self) -> dict:
        with self._lock:
            return {
                "open": len(self._sessions),
                **self._counters,
                "segments": dict(self._segment_totals),
            }

    # -- table management ----------------------------------------------------

    def _sweep_locked(self) -> None:
        now = time.monotonic()
        expired = [sid for sid, session in self._sessions.items()
                   if now - session.touched > self.ttl_s]
        for sid in expired:
            del self._sessions[sid]
            self._counters["evicted_ttl"] += 1

    def _insert_locked(self, session: EditSession) -> None:
        while len(self._sessions) >= self.capacity:
            oldest = min(self._sessions.values(),
                         key=lambda s: s.touched)
            del self._sessions[oldest.id]
            # With a spool the evicted session is merely swapped out —
            # any worker (including this one) can hydrate it back.
            self._counters["evicted_lru"] += 1
        self._sessions[session.id] = session

    def _get(self, session_id: str) -> EditSession | None:
        """Find (or hydrate from the fleet spool) a live session."""
        with self._lock:
            self._sweep_locked()
            session = self._sessions.get(session_id)
        if session is not None:
            return session
        return self._hydrate(session_id)

    def _fresh(self, record: Mapping[str, Any]) -> bool:
        """Was the spooled session updated within the idle TTL?"""
        return time.time() - float(record.get("updated", 0.0)) <= self.ttl_s

    def _hydrate(self, session_id: str) -> EditSession | None:
        if self.spool is None:
            return None
        record = self.spool.read(session_id)
        if record is None:
            return None
        if not self._fresh(record):
            self.spool.delete(session_id)
            self._count("evicted_ttl")
            return None
        session = EditSession(
            session_id,
            IncrementalDocument(record.get("text", "")),
            version=int(record.get("version", 0)))
        session.last_request_id = record.get("request_id")
        session.last_response = record.get("response")
        session.last_good = record.get("last_good")
        with self._lock:
            # Another thread may have hydrated concurrently; keep the
            # one already in the table.
            existing = self._sessions.get(session_id)
            if existing is not None:
                return existing
            self._insert_locked(session)
            self._counters["hydrated"] += 1
        return session

    def _sync_from_spool(self, session: EditSession) -> bool:
        """Fast-forward a session another worker advanced.

        Returns ``False`` when the spool record is gone — in fleet
        mode the spool is the source of truth, and it never prunes a
        live record, so a missing record means another worker closed
        (or expired) the session and this worker's copy is dead. The
        replacement goes through the incremental matcher, so defs the
        other worker's edits did not touch are still reused."""
        if self.spool is None:
            return True
        record = self.spool.read(session.id)
        if record is None:
            return False
        version = int(record.get("version", 0))
        if version <= session.version:
            return True
        stats = session.document.replace(record.get("text", ""))
        self._count_segments(stats)
        session.version = version
        session.last_request_id = record.get("request_id")
        session.last_response = record.get("response")
        session.last_good = record.get("last_good")
        self._count("synced")
        return True

    def _publish(self, session: EditSession) -> None:
        if self.spool is None:
            return
        self.spool.write({
            "id": session.id,
            "version": session.version,
            "text": session.document.text,
            "request_id": session.last_request_id,
            "response": session.last_response,
            "last_good": session.last_good,
            "updated": time.time(),
        })

    # -- verdict formatting --------------------------------------------------

    def _result(self, session: EditSession,
                stats: Mapping[str, int]) -> dict:
        document = session.document
        check = check_payload_for(document, self.pipeline)
        source = SourceFile(document.text)
        payload: dict[str, Any] = {
            "ok": True,
            "session": session.id,
            "version": session.version,
            "check": check,
            "segments": stats.get("segments", 0),
            "reparsed": stats.get("parsed", 0),
            "reused": stats.get("reused", 0),
            "relocated": stats.get("relocated", 0),
            "diagnostics": [diagnostic_payload(error, source)
                            for _segment, error in document.diagnostics],
        }
        if check.get("ok"):
            session.last_good = {"version": session.version,
                                 "check": check}
        elif session.last_good is not None:
            # Serve the stale-but-marked verdict alongside the broken
            # segments' names, so an editor can keep rendering the old
            # result while the user types through a syntax error.
            payload["stale"] = {
                **session.last_good,
                "broken": [segment.name or segment.kind
                           for segment in document.broken_segments],
            }
        return payload

    # -- protocol handlers ---------------------------------------------------

    def open(self, request: Mapping[str, Any],
             request_id: str | None = None) -> tuple[int, Any]:
        source = request.get("source")
        if not isinstance(source, str):
            return 400, {"ok": False, "error":
                         'request must carry a string "source" field'}
        session_id = request.get("session")
        if session_id is None:
            session_id = telemetry.new_id()
        elif not isinstance(session_id, str) \
                or not _ID_RE.match(session_id):
            return 400, {"ok": False, "error":
                         "session ids must match [A-Za-z0-9_.-]{1,64}"}

        existing = self._get(session_id)
        if existing is not None:
            with existing.lock:
                alive = self._sync_from_spool(existing)
                if not alive:
                    # Closed by another worker; the id is free again.
                    with self._lock:
                        self._sessions.pop(session_id, None)
                    existing = None
                elif existing.version == 0 \
                        and existing.document.text == source \
                        and existing.last_response is not None:
                    # A retried open (the response was lost in flight).
                    existing.touch()
                    self._count("replayed")
                    return 200, existing.last_response
            if existing is not None:
                return 409, {"ok": False,
                             "error": f"session {session_id!r} already "
                                      f"exists (close it or pick "
                                      f"another id)",
                             "session": session_id}

        document = IncrementalDocument(source)
        session = EditSession(session_id, document)
        with session.lock:
            stats = document.stats
            self._count_segments(stats)
            payload = self._result(session, stats)
            session.last_request_id = request_id
            session.last_response = payload
            with self._lock:
                self._sweep_locked()
                self._insert_locked(session)
                self._counters["opened"] += 1
            self._publish(session)
        return 200, payload

    def edit(self, session_id: str, request: Mapping[str, Any],
             request_id: str | None = None) -> tuple[int, Any]:
        session = self._get(session_id)
        if session is None:
            self._count("not_found")
            return 404, {"ok": False,
                         "error": f"no such session {session_id!r} "
                                  f"(never opened, expired, or evicted)",
                         "session": session_id}
        version = request.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            return 400, {"ok": False, "error":
                         'request must carry an integer "version" field'}
        edits = request.get("edits")
        source = request.get("source")
        if edits is None and not isinstance(source, str):
            return 400, {"ok": False, "error":
                         'request must carry "edits" (a list of '
                         '{start, end, text} deltas) or a full '
                         '"source" replacement'}
        if edits is not None and not isinstance(edits, list):
            return 400, {"ok": False,
                         "error": '"edits" must be a list'}

        with session.lock:
            if not self._sync_from_spool(session):
                with self._lock:
                    self._sessions.pop(session_id, None)
                self._count("not_found")
                return 404, {"ok": False,
                             "error": f"no such session {session_id!r} "
                                      f"(closed elsewhere in the fleet)",
                             "session": session_id}
            if version == session.version and request_id \
                    and request_id == session.last_request_id \
                    and session.last_response is not None:
                # Same delta, same X-Request-Id: a client retry of an
                # edit this fleet already applied.
                session.touch()
                self._count("replayed")
                return 200, session.last_response
            if version != session.version + 1:
                self._count("stale_rejected")
                return 409, {
                    "ok": False,
                    "error": f"stale delta for session "
                             f"{session_id!r}: expected version "
                             f"{session.version + 1}, got {version}",
                    "stale_version": True,
                    "session": session_id,
                    "expected": session.version + 1,
                    "got": version,
                }
            try:
                if edits is not None:
                    stats = session.document.apply_edits(edits)
                else:
                    stats = session.document.replace(source)
            except ValueError as error:
                return 400, {"ok": False, "error": str(error)}
            session.version = version
            session.edits += 1
            session.touch()
            self._count("edits")
            self._count_segments(stats)
            payload = self._result(session, stats)
            session.last_request_id = request_id
            session.last_response = payload
            self._publish(session)
        return 200, payload

    def close(self, session_id: str) -> tuple[int, Any]:
        session = self._get(session_id)
        with self._lock:
            self._sessions.pop(session_id, None)
        spooled = self.spool.delete(session_id) if self.spool else False
        if session is None and not spooled:
            self._count("not_found")
            return 404, {"ok": False,
                         "error": f"no such session {session_id!r}",
                         "session": session_id}
        self._count("closed")
        payload: dict[str, Any] = {"ok": True, "session": session_id,
                                   "closed": True}
        if session is not None:
            payload["version"] = session.version
            payload["edits"] = session.edits
        return 200, payload
