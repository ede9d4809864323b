"""One JSON file per record, shared by processes that never talk.

A prefork fleet (and any set of nodes pointed at one directory)
coordinates through the filesystem only: worker stats, finished
traces, edit sessions and async ``/dse`` jobs each live in a
:class:`Spool`. File names hash the record's ``key`` field, so
client-supplied ids never become path components. Pruning keeps the
newest :attr:`Spool.MAX_FILES` records but never drops one for which
the owner's ``live`` predicate holds: an open session or a running
job stays resolvable from every worker however many finished records
pile up behind it, so a missing record means closed or expired.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from .fsio import TMP_PREFIX, atomic_write, reap_temp_debris

__all__ = ["Spool", "pid_alive"]


def pid_alive(pid: int) -> bool:
    """Does a process with this pid exist (on this host)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True                           # exists but not ours
    return True


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None                           # absent, mid-replace, torn


class Spool:
    """A directory of JSON records keyed by ``record[key]``.

    ``live(record)``, when given, marks records that pruning must keep
    whatever their age.
    """

    MAX_FILES = 256
    _PRUNE_EVERY = 32

    def __init__(self, root: str | Path, key: str,
                 live: Callable[[Mapping[str, Any]], bool] | None = None,
                 ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.key = key
        self.live = live
        self._lock = threading.Lock()
        self._writes = 0
        # Only crash debris: a worker (re)starting while its peers
        # publish must not unlink their in-flight temp files.
        reap_temp_debris(self.root)

    def path_for(self, key: Any) -> Path:
        digest = hashlib.sha256(str(key).encode()).hexdigest()[:32]
        return self.root / f"{digest}.json"

    def write(self, record: Mapping[str, Any]) -> bool:
        """Publish ``record``, replacing any earlier one with its key.

        Returns ``False`` when the OS rejected the write.
        """
        written = atomic_write(self.path_for(record[self.key]),
                               json.dumps(record).encode(),
                               tmp_dir=self.root)
        self._count_write()
        return written

    def create(self, record: Mapping[str, Any]) -> bool:
        """Publish ``record`` only if no record with its key exists.

        The record is written to a temp file and hard-linked into
        place: ``os.link`` is atomic and fails with ``EEXIST`` when
        another process linked first, so of two simultaneous creators
        exactly one wins. On filesystems without hard links this falls
        back to :meth:`write`, and the race costs a duplicate compute.
        """
        path = self.path_for(record[self.key])
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=TMP_PREFIX, suffix=path.suffix)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(json.dumps(record).encode())
            os.link(temp_name, path)
        except FileExistsError:
            return False
        except OSError:
            return self.write(record)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
        self._count_write()
        return True

    def read(self, key: Any) -> dict | None:
        return _load(self.path_for(key))

    def delete(self, key: Any) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def records(self, limit: int | None = None) -> list[dict]:
        """Published records, newest first (unreadable files skipped)."""
        entries = self._entries()
        if limit is not None:
            entries = entries[:max(0, limit)]
        loaded = (_load(path) for _, path in entries)
        return [record for record in loaded if record is not None]

    def _entries(self) -> list[tuple[float, Path]]:
        """``(mtime, path)`` of every published record, newest first.

        The pattern skips in-flight ``.tmp-*`` publications.
        """
        entries = []
        for path in self.root.glob("[!.]*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue                      # unlinked meanwhile
        entries.sort(reverse=True)
        return entries

    def _count_write(self) -> None:
        with self._lock:
            self._writes += 1
            due = self._writes % self._PRUNE_EVERY == 0
        if due:
            self._prune()

    def _prune(self) -> None:
        for _, path in self._entries()[self.MAX_FILES:]:
            if self.live is not None:
                record = _load(path)
                if record is not None and self.live(record):
                    continue
            with contextlib.suppress(OSError):
                path.unlink()
