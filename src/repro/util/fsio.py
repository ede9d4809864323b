"""Atomic file publication shared by every on-disk store.

The persistent artifact tier (:mod:`repro.service.artifacts`) and the
fleet's record spools (:mod:`repro.util.spool`: the worker stats
board, traces, sessions and jobs) publish files that concurrent
uncoordinated processes read: the only sound primitive is
write-to-temp-then-rename on one filesystem. Keeping the discipline
here means a future hardening (fsync-before-rename, different temp
naming) lands in every publisher at once.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

#: Prefix for in-flight publications; reap helpers key on it.
TMP_PREFIX = ".tmp-"

#: Temp files older than this are crash debris: no write-then-rename
#: takes minutes, so they can never be another process's in-flight
#: publication and are safe to unlink.
TMP_MAX_AGE_S = 300.0


def atomic_write(path: Path, data: bytes, *, tmp_dir: Path) -> bool:
    """Atomically publish ``data`` at ``path`` via temp-file + rename.

    ``tmp_dir`` must be on the same filesystem as ``path`` (pass the
    store's root). Returns ``False`` — leaving no debris — if the OS
    rejects the write; a reader never observes a partial file.
    """
    descriptor, temp_name = tempfile.mkstemp(
        dir=tmp_dir, prefix=TMP_PREFIX, suffix=path.suffix)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, path)
    except OSError:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        return False
    return True


def reap_temp_debris(root: Path) -> None:
    """Unlink ``.tmp-*`` files orphaned by a crash mid-publication.

    Only files older than :data:`TMP_MAX_AGE_S` go, so another
    process's in-flight publication is never touched.
    """
    now = time.time()
    for debris in root.glob(TMP_PREFIX + "*"):
        try:
            if now - debris.stat().st_mtime <= TMP_MAX_AGE_S:
                continue
            debris.unlink()
        except OSError:
            continue                          # mid-publication or gone
