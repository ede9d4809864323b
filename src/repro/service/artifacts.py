"""Content-addressed artifact store.

Every pipeline stage result — parsed AST, checker report, estimator
report, emitted C++, interpreter memories — is memoized under an
:class:`ArtifactKey`: the stage name plus a SHA-256 fingerprint of the
source text and the options that stage (transitively) consumes. The
same source text therefore maps to the same artifacts across requests,
which is what makes the service's warm path orders of magnitude faster
than a cold compile.

The store is a three-tier hierarchy:

* **memory** — a bounded LRU: hits refresh recency, inserts beyond
  ``capacity`` evict the least recently used artifact;
* **disk** (optional) — a persistent :class:`DiskStore` probed on
  memory misses. Artifacts written there survive process restarts and
  are shared by every process pointed at the same directory (the
  multi-process server's workers, CLI runs, benchmarks). Sound because
  every artifact is a pure function of its content-addressed key.
* **peer** (optional) — a :class:`RemoteStore` probed on disk misses:
  other fleet nodes' ``/cas/{digest}`` routes. A peer hit is verified
  against its transported checksum, then promoted into *both* local
  tiers, so each artifact crosses the network at most once per node.
  Any peer failure — connection refused, timeout, corrupt or truncated
  blob — degrades to a plain cache miss, exactly like a failed
  ``disk.read``.

Bytes from either lower tier become values only through
:func:`decode`, which builds artifact data and calls no other code: a
planted or peer-served blob can at worst be a miss.

All operations are thread-safe — the server executes requests on a
thread pool — and per-stage hit/miss/coalesced counters feed the
``/metrics`` endpoint.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import logging
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping

from ..util.faults import fault_point
from ..util.fsio import atomic_write, reap_temp_debris
from ..util.hashing import content_key, digest_shard, options_fingerprint

logger = logging.getLogger(__name__)

#: Sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one stage result: ``(stage, content fingerprint)``."""

    stage: str
    digest: str

    def __str__(self) -> str:
        return f"{self.stage}:{self.digest[:12]}"


def artifact_key(stage: str, source: str,
                 options: Mapping[str, Any] | None = None) -> ArtifactKey:
    """Key a stage result by source content and canonicalized options."""
    return ArtifactKey(stage, content_key(
        stage, source, options_fingerprint(options)))


@dataclass
class StageCounters:
    hits: int = 0
    misses: int = 0
    #: Requests served by waiting on another request's in-flight
    #: compute for the same key (singleflight followers).
    coalesced: int = 0


#: numpy's own array reduction, under numpy 1's ``numpy.core`` and
#: numpy 2's ``numpy._core``.
_NUMPY_GLOBALS = frozenset({("numpy", "dtype")} | {
    (f"{package}.{module}", name)
    for package in ("numpy.core", "numpy._core")
    for module, name in (("numeric", "_frombuffer"),
                         ("multiarray", "_reconstruct"))})


class _ArtifactUnpickler(pickle.Unpickler):
    """An unpickler that builds artifact data and calls nothing else.

    A global resolves only if it is numpy's array reduction, or a class
    defined in the named ``repro`` module itself (no re-export, no
    dotted path) that is a dataclass, an ``Enum``, a
    :class:`~repro.errors.DahliaError` or a ``ResolvedProgram``.
    """

    def find_class(self, module: str, name: str) -> Any:
        from ..errors import DahliaError
        from ..ir.resolved import ResolvedProgram

        if (module, name) == ("numpy", "ndarray"):
            # Only as _reconstruct's subtype: called with a buffer, the
            # class would build an object array over raw pointers.
            return None
        if (module, name) in _NUMPY_GLOBALS:
            found = super().find_class(module, name)
            if name != "_reconstruct":
                return found
            import numpy

            return lambda _subtype, *args: found(numpy.ndarray, *args)
        if module.split(".")[0] == "repro" and "." not in name:
            cls = super().find_class(module, name)
            if isinstance(cls, type) and cls.__module__ == module and (
                    is_dataclass(cls) or cls is ResolvedProgram
                    or issubclass(cls, (Enum, DahliaError))):
                return cls
        raise pickle.UnpicklingError(
            f"{module}.{name} is not an artifact type")


def decode(blob: bytes) -> Any:
    """Turn stored artifact bytes back into a value, building data only.

    The one bytes→value path of the store: the disk and peer tiers
    call it on every read. Any global outside the allowlist raises, and
    both tiers count that as ``corrupt`` and serve a miss.
    """
    return _ArtifactUnpickler(io.BytesIO(blob)).load()


#: Default size cap for the persistent tier (bytes).
DEFAULT_DISK_BYTES = 256 * 1024 * 1024

#: After an eviction sweep the tier is trimmed below this fraction of
#: the cap, so sweeps are amortized instead of firing on every put.
_EVICT_TO = 0.8

#: Puts between opportunistic eviction sweeps.
_SWEEP_EVERY = 64

#: How long a cached (files, bytes) usage scan stays fresh. stats()
#: is called on every /metrics publish, and walking tens of thousands
#: of artifact files per request would dominate warm latency.
_USAGE_TTL_S = 5.0


class DiskStore:
    """Persistent content-addressed artifact tier.

    One pickle file per artifact under ``root``, sharded by digest
    prefix (``root/ab/12cd….stage.pkl``) so directories stay small.
    The design assumes *many concurrent readers and writers with no
    coordination* — the multi-process server's workers all point at
    the same directory:

    * **atomic publication** — artifacts are written to a temp file in
      ``root`` and ``os.replace``d into place, so a reader never
      observes a half-written file;
    * **corruption tolerance** — any failure to read or
      :func:`decode` a file (truncation, version skew, a garbage file
      dropped in the directory, a global outside the allowlist) is
      treated as a miss and the offending file is unlinked
      best-effort;
    * **LRU by mtime** — hits refresh the file's mtime; when the tier
      exceeds ``max_bytes`` an eviction sweep unlinks the stalest
      files until it is back under ``_EVICT_TO`` of the cap. Sweeps
      run at init and every ``_SWEEP_EVERY`` puts, not on each put.

    Values that cannot be pickled are silently skipped (counted in
    ``stats()['unpicklable']``) — the memory tier still holds them.
    """

    def __init__(self, root: str | Path,
                 max_bytes: int = DEFAULT_DISK_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_errors = 0
        self.evictions = 0
        self.corrupt = 0
        self.unpicklable = 0
        self._puts_since_sweep = 0
        self._usage: tuple[float, int, int] | None = None
        self._sweep()

    def path_for(self, key: ArtifactKey) -> Path:
        shard, rest = digest_shard(key.digest)
        return self.root / shard / f"{rest}.{key.stage}.pkl"

    # -- cache protocol -----------------------------------------------------

    def get(self, key: ArtifactKey, default: Any = None) -> Any:
        path = self.path_for(key)
        try:
            fault_point("disk.read")          # chaos drills: corrupt read
            value = decode(path.read_bytes())
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return default
        except Exception:
            # Truncated write, pickle drift, a disallowed global, or
            # plain garbage: drop the file and treat it as a miss — the
            # stage just recomputes.
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            self._unlink_quietly(path)
            return default
        self._touch_quietly(path)             # refresh LRU recency
        with self._lock:
            self.hits += 1
        return value

    def put(self, key: ArtifactKey, value: Any) -> None:
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.unpicklable += 1
            return
        path = self.path_for(key)
        # A failed write (ENOSPC, read-only remount, permissions, an
        # injected fault) is a cache miss, never a request failure: the
        # memory tier still holds the value and the stage recomputes on
        # a later cold read. Write-then-rename inside the tier's own
        # directory keeps publication atomic on one filesystem.
        try:
            fault_point("disk.write")         # chaos drills: ENOSPC
            path.parent.mkdir(parents=True, exist_ok=True)
            written = atomic_write(path, blob, tmp_dir=self.root)
        except OSError as error:
            written = False
            logger.warning("disk tier write failed for %s: %s",
                           key, error)
        if not written:
            with self._lock:
                self.write_errors += 1
            return
        with self._lock:
            self.writes += 1
            self._puts_since_sweep += 1
            sweep = self._puts_since_sweep >= _SWEEP_EVERY
            if sweep:
                self._puts_since_sweep = 0
            if self._usage is not None:
                # Keep the cached usage roughly current between scans
                # (overwrites double-count briefly; the next sweep or
                # TTL expiry measures exactly).
                stamp, files, bytes_ = self._usage
                self._usage = (stamp, files + 1, bytes_ + len(blob))
        if sweep:
            self._sweep()

    def __contains__(self, key: ArtifactKey) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> None:
        for path in self._artifact_files():
            self._unlink_quietly(path)
        # Drop the TTL-cached usage scan: a /metrics publish right
        # after an eviction sweep must not report the pre-clear bytes.
        with self._lock:
            self._usage = None

    # -- eviction -----------------------------------------------------------

    def _artifact_files(self) -> list[Path]:
        return [path for path in self.root.glob("??/*.pkl")]

    def _sweep(self) -> None:
        """Evict stalest artifacts until the tier fits ``max_bytes``.

        Also reaps temp files orphaned by a crash between the temp
        write and the rename — they are invisible to the size
        accounting and would otherwise accumulate forever.
        """
        reap_temp_debris(self.root)
        entries = []
        total = 0
        for path in self._artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue                      # concurrently evicted
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        if total > self.max_bytes:
            target = int(self.max_bytes * _EVICT_TO)
            entries.sort()                    # stalest mtime first
            for _, size, path in entries:
                if total <= target:
                    break
                self._unlink_quietly(path)
                total -= size
                evicted += 1
        with self._lock:
            self.evictions += evicted
            # The walk just measured the tier exactly — refresh the
            # cached usage for free.
            self._usage = (time.monotonic(), len(entries) - evicted, total)

    @staticmethod
    def _unlink_quietly(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass                              # another process got there

    @staticmethod
    def _touch_quietly(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass                              # evicted between read and touch

    # -- statistics ---------------------------------------------------------

    def usage(self, max_age_s: float = _USAGE_TTL_S) -> tuple[int, int]:
        """``(files, bytes)`` on disk (shared across processes).

        The directory walk is O(files) and ``stats()`` runs per
        ``/metrics`` publish, so results are cached for ``max_age_s``
        seconds; pass ``0`` to force a fresh scan.
        """
        with self._lock:
            cached = self._usage
        if cached is not None \
                and time.monotonic() - cached[0] < max_age_s:
            return cached[1], cached[2]
        files = bytes_ = 0
        for path in self._artifact_files():
            try:
                bytes_ += path.stat().st_size
            except OSError:
                continue
            files += 1
        with self._lock:
            self._usage = (time.monotonic(), files, bytes_)
        return files, bytes_

    def stats(self) -> dict:
        files, bytes_ = self.usage()
        with self._lock:
            return {
                "root": str(self.root),
                "max_bytes": self.max_bytes,
                "files": files,
                "bytes": bytes_,
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "write_errors": self.write_errors,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "unpicklable": self.unpicklable,
            }


#: Per-peer socket timeout for CAS fetches. A peer that cannot answer
#: inside this window is slower than recomputing most stages locally,
#: so the probe gives up and the lookup degrades to a miss.
REMOTE_TIMEOUT_S = 2.0


class RemoteStore:
    """Read-only peer tier: fetch artifacts from other fleet nodes.

    Probes each configured peer's ``GET /cas/{digest}?stage=...`` route
    in order and returns the first verified hit. The transport contract
    mirrors :class:`DiskStore`'s corruption tolerance — *any* failure
    is a miss, never an exception:

    * connection refused / timeout / non-200 → miss (``errors``);
    * blob whose SHA-256 disagrees with the peer's ``X-CAS-Sha256``
      header, or that fails to :func:`decode` → miss (``corrupt``) — a
      half-dead peer can cost latency but never run code;
    * ``fault_point("remote.read")`` lets chaos drills inject all of
      the above.

    The tier is deliberately read-only: artifacts flow *into* a node
    via its own computes, a shared cache directory, or this verified
    pull. No route accepts pushed bytes, and a lookup never writes to
    a peer, so probe storms cannot amplify into write storms. The
    checksum proves transit only: peers are trusted to hold correct
    values, never to run code.
    """

    def __init__(self, peers: list[str] | tuple[str, ...],
                 timeout_s: float = REMOTE_TIMEOUT_S) -> None:
        parsed = []
        for peer in peers:
            host, _, port = peer.strip().rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"peer must be HOST:PORT, got {peer!r}")
            parsed.append((host, int(port)))
        if not parsed:
            raise ValueError("RemoteStore requires at least one peer")
        self.peers = tuple(parsed)
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.corrupt = 0

    def get(self, key: ArtifactKey, default: Any = None) -> Any:
        for host, port in self.peers:
            blob = self._fetch(host, port, key)
            if blob is None:
                continue
            try:
                value = decode(blob)
            except Exception:
                with self._lock:
                    self.corrupt += 1
                continue
            with self._lock:
                self.hits += 1
            return value
        with self._lock:
            self.misses += 1
        return default

    def _fetch(self, host: str, port: int,
               key: ArtifactKey) -> bytes | None:
        """One peer probe; returns verified raw blob bytes or ``None``."""
        conn = None
        try:
            fault_point("remote.read")        # chaos drills: dead peer
            conn = http.client.HTTPConnection(
                host, port, timeout=self.timeout_s)
            conn.request(
                "GET", f"/cas/{key.digest}?stage={key.stage}")
            response = conn.getresponse()
            if response.status != 200:
                return None
            blob = response.read()
            expected = response.getheader("X-CAS-Sha256", "")
        except Exception:
            with self._lock:
                self.errors += 1
            return None
        finally:
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass
        # Verify before promotion: a truncated or bit-flipped transfer
        # must degrade to a miss, not poison two local tiers.
        if not expected \
                or hashlib.sha256(blob).hexdigest() != expected:
            with self._lock:
                self.corrupt += 1
            return None
        return blob

    def stats(self) -> dict:
        with self._lock:
            return {
                "peers": [f"{host}:{port}" for host, port in self.peers],
                "hits": self.hits,
                "misses": self.misses,
                "errors": self.errors,
                "corrupt": self.corrupt,
            }


class ArtifactStore:
    """Bounded, thread-safe, content-addressed LRU artifact cache.

    With a ``disk`` tier attached, memory misses fall through to the
    persistent store and disk hits are promoted into memory, so a
    fresh process pointed at a warm directory starts warm. With a
    ``remote`` tier attached, disk misses additionally probe fleet
    peers, and verified peer hits are promoted into both local tiers.
    """

    def __init__(self, capacity: int = 512,
                 disk: DiskStore | None = None,
                 remote: RemoteStore | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.disk = disk
        self.remote = remote
        self._entries: OrderedDict[ArtifactKey, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._by_stage: dict[str, StageCounters] = {}
        self.evictions = 0

    # -- core cache protocol ------------------------------------------------

    def get(self, key: ArtifactKey, default: Any = None) -> Any:
        """Look up an artifact, refreshing its recency on a hit.

        Memory misses probe the disk tier (when attached); a disk hit
        counts as a memory miss in the per-stage counters but is
        promoted into the memory tier for next time.
        """
        value, tier = self.lookup(key)
        return default if tier is None else value

    def lookup(self, key: ArtifactKey) -> tuple[Any, str | None]:
        """Like :meth:`get`, but report which tier answered.

        Returns ``(value, "memory")``, ``(value, "disk")``,
        ``(value, "remote")``, or ``(None, None)`` on a full miss —
        the tier is what traced pipeline stages attach as their
        ``cache`` attribute. Counter semantics are identical to
        :meth:`get` (a lower-tier hit counts as a memory miss and is
        promoted).
        """
        with self._lock:
            counters = self._counters(key.stage)
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                counters.hits += 1
                return value, "memory"
            counters.misses += 1
        if self.disk is not None:
            value = self.disk.get(key, _MISSING)
            if value is not _MISSING:
                self._put_memory(key, value)  # promote
                return value, "disk"
        if self.remote is not None:
            value = self.remote.get(key, _MISSING)
            if value is not _MISSING:
                # Promote into both local tiers: the artifact crosses
                # the network once, then this node serves it (and can
                # re-export it to further peers) locally.
                self._put_memory(key, value)
                if self.disk is not None:
                    self.disk.put(key, value)
                return value, "remote"
        return None, None

    def put(self, key: ArtifactKey, value: Any) -> None:
        self._put_memory(key, value)
        if self.disk is not None:
            self.disk.put(key, value)

    def _put_memory(self, key: ArtifactKey, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: ArtifactKey,
                       compute: Callable[[], Any]) -> Any:
        """Serve ``key`` from cache, else compute and cache it.

        The compute runs outside the lock so slow stages never block
        readers; concurrent misses on the same key may compute twice,
        which is harmless because every stage is deterministic.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: ArtifactKey) -> bool:
        """True if a *local* tier can serve ``key`` (no counters touched)."""
        with self._lock:
            if key in self._entries:
                return True
        return self.disk is not None and key in self.disk

    # -- CAS exchange (peer-facing blob protocol) ---------------------------

    def peek_blob(self, key: ArtifactKey) -> bytes | None:
        """Raw pickle bytes for ``key`` from *local* tiers only.

        This is what the ``/cas/{digest}`` route serves. No counters,
        no recency refresh, and crucially no remote probe — a fleet of
        mutually-peered nodes must never recurse a CAS request back
        out to the peer that asked.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            try:
                return pickle.dumps(value,
                                    protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                return None
        if self.disk is not None:
            path = self.disk.path_for(key)
            try:
                with open(path, "rb") as handle:
                    return handle.read()
            except OSError:
                return None
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop both tiers — a later get must recompute, not resurrect."""
        with self._lock:
            self._entries.clear()
        if self.disk is not None:
            self.disk.clear()

    # -- statistics ---------------------------------------------------------

    def _counters(self, stage: str) -> StageCounters:
        counters = self._by_stage.get(stage)
        if counters is None:
            counters = self._by_stage[stage] = StageCounters()
        return counters

    def count_coalesced(self, stage: str) -> None:
        """Record a singleflight follower for ``stage``.

        The pipeline calls this when a request's stage miss was served
        by waiting on a concurrent identical compute instead of
        running one — the miss already counted, this annotates how it
        resolved.
        """
        with self._lock:
            self._counters(stage).coalesced += 1

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(c.hits for c in self._by_stage.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(c.misses for c in self._by_stage.values())

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Snapshot for ``/metrics``: totals plus per-stage counters.

        When a persistent tier is attached its statistics ride along
        under ``"disk"`` (absent otherwise, so memory-only deployments
        keep their historical metrics shape).
        """
        with self._lock:
            snapshot = {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "evictions": self.evictions,
                "stages": {
                    stage: {"hits": c.hits, "misses": c.misses,
                            "coalesced": c.coalesced}
                    for stage, c in sorted(self._by_stage.items())
                },
            }
        if self.disk is not None:
            snapshot["disk"] = self.disk.stats()
        if self.remote is not None:
            snapshot["remote"] = self.remote.stats()
        return snapshot
