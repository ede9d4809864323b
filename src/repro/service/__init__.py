"""Compiler-as-a-service subsystem.

Three layers, bottom up:

* :mod:`repro.service.artifacts` — a content-addressed, LRU-bounded
  artifact store memoizing stage results across requests;
* :mod:`repro.service.pipeline`  — the Figure-1 compilation flow as
  declarative stages with dependency-aware invalidation, keyed on the
  resolved program's structural digest;
* :mod:`repro.service.prewarm`   — corpus-driven cache warming
  (``dahlia-py cache prewarm``);
* :mod:`repro.service.jobs`     — spool-backed async ``/dse`` jobs
  (submit, poll, tail) deduplicated by deterministic job id;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only asyncio JSON-over-HTTP server (``dahlia-py serve``) and
  its keep-alive client (used by the ``--server`` CLI mode). A fleet
  of servers federates artifact stores over ``/cas/{digest}``
  (``serve --peers``).
"""

from .artifacts import (
    ArtifactKey,
    ArtifactStore,
    DiskStore,
    RemoteStore,
    artifact_key,
)
from .client import ServiceClient, ServiceError
from .jobs import JobManager, job_id_for
from .pipeline import CompilerPipeline, dse_summary, relevant_options
from .prewarm import prewarm_corpus
from .server import (
    BackgroundServer,
    DahliaService,
    ServiceServer,
    WorkerBoard,
    encode_payload,
    serve,
)

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "BackgroundServer",
    "CompilerPipeline",
    "DahliaService",
    "DiskStore",
    "JobManager",
    "RemoteStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "WorkerBoard",
    "artifact_key",
    "dse_summary",
    "encode_payload",
    "job_id_for",
    "prewarm_corpus",
    "relevant_options",
    "serve",
]
