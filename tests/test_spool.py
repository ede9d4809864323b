"""The fleet record spool: live records survive pruning, debris does not.

Sessions, async jobs, traces and the worker stats board all keep one
JSON file per record in a :class:`~repro.util.spool.Spool`. Pruning
keeps the newest ``MAX_FILES`` records but must never drop a live one,
because peers read a missing record as "closed":

* sessions: a session updated within the TTL outlives any number of
  newer sessions, so a peer never reports it closed;
* jobs: a running job outlives any number of finished records a peer
  spools after it, while old finished and orphaned records go;
* temp files: only crash debris is reaped, never a peer's in-flight
  publication, and a losing exclusive create leaves nothing behind.

The trace spool's hashing and pruning are covered in
``tests/test_telemetry.py`` and the board's liveness policy in
``tests/test_service_workers.py``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.service.jobs import JobManager
from repro.service.pipeline import CompilerPipeline
from repro.service.session import SessionManager
from repro.util.fsio import TMP_PREFIX
from repro.util.spool import Spool

GOOD = """\
decl A: float[8 bank 2];
def warm(m: float[8 bank 2]) {
  for (let i = 0..8) unroll 2 {
    m[i] := 1.0;
  }
}
warm(A);
"""

#: Beyond any pid the kernel hands out (pid_max is at most 2**22).
DEAD_PID = 2 ** 22 + 99999


def age(path, seconds: float) -> None:
    """Backdate ``path``'s mtime so pruning sees it as old."""
    then = time.time() - seconds
    os.utime(path, (then, then))


def test_open_session_outlives_300_newer_sessions(tmp_path):
    pipeline = CompilerPipeline()
    owner = SessionManager(pipeline, capacity=400, spool_dir=tmp_path)
    peer = SessionManager(pipeline, capacity=400, spool_dir=tmp_path)
    # An idle-expired record: pruning may drop it.
    owner.spool.write({"id": "expired", "version": 0, "text": GOOD,
                       "updated": time.time() - 10 * owner.ttl_s})
    age(owner.spool.path_for("expired"), 1000)

    status, _ = owner.open({"source": GOOD, "session": "s0"})
    assert status == 200
    for index in range(1, 300):
        status, _ = owner.open({"source": GOOD, "session": f"s{index}"})
        assert status == 200

    edit = {"start": 0, "end": 0, "text": "// edit\n"}
    status, payload = owner.edit("s0", {"version": 1, "edits": [edit]})
    assert status == 200, payload
    # A peer that never held the session hydrates it from the spool.
    status, payload = peer.edit("s0", {"version": 2, "edits": [edit]})
    assert status == 200, payload
    assert payload["version"] == 2
    assert owner.spool.read("expired") is None


def test_running_job_outlives_300_finished_records_from_a_peer(tmp_path):
    release = threading.Event()

    def blocked(params, on_update):
        release.wait(timeout=60)
        return {"ok": True}

    owner = JobManager(blocked, spool_dir=tmp_path)
    peer = JobManager(lambda params, on_update: {"ok": True},
                      spool_dir=tmp_path)
    stale = {"state": "done", "pid": os.getpid(), "created": 0.0,
             "updated": 0.0, "updates": []}
    peer.spool.write({**stale, "job": "finished-long-ago"})
    peer.spool.write({**stale, "job": "orphaned", "state": "queued",
                      "pid": DEAD_PID})
    try:
        record, _ = owner.submit({"space": "gemm-blocked", "sample": 1})
        job_id = record["job"]
        deadline = time.monotonic() + 30
        while (peer.spool.read(job_id) or {}).get("state") != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        for name, seconds in (("finished-long-ago", 1000),
                              ("orphaned", 1000), (job_id, 900)):
            age(peer.spool.path_for(name), seconds)

        for index in range(300):
            peer.spool.write({**stale, "job": f"done-{index}",
                              "created": time.time()})

        seen = peer.get(job_id)
        assert seen is not None and seen["state"] == "running"
        assert peer.spool.read("finished-long-ago") is None
        assert peer.spool.read("orphaned") is None
        assert len(peer.spool.records()) < 300
    finally:
        release.set()


def test_concurrent_writers_never_lose_a_live_record(tmp_path):
    spool = Spool(tmp_path, "id", live=lambda record: record["live"])
    writers, versions = 6, 100

    def write(name: str) -> None:
        for version in range(1, versions + 1):
            spool.write({"id": name, "live": True, "version": version})
            spool.write({"id": f"{name}-done-{version}", "live": False})

    threads = [threading.Thread(target=write, args=(f"w{index}",))
               for index in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(writers):
        assert spool.read(f"w{index}") \
            == {"id": f"w{index}", "live": True, "version": versions}
    assert len(spool.records()) \
        < Spool.MAX_FILES + Spool._PRUNE_EVERY + writers


def test_spool_reaps_only_stale_temp_files(tmp_path):
    in_flight = tmp_path / f"{TMP_PREFIX}peer-publishing.json"
    debris = tmp_path / f"{TMP_PREFIX}crashed-mid-write.json"
    in_flight.write_text("{}")
    debris.write_text("{}")
    age(debris, 600)

    spool = Spool(tmp_path, "id")
    assert in_flight.exists()
    assert not debris.exists()
    assert spool.records() == []            # temp files are not records


def test_losing_create_leaves_no_file_behind(tmp_path):
    spool = Spool(tmp_path, "job")
    assert spool.create({"job": "j1", "state": "queued"})
    assert not spool.create({"job": "j1", "state": "running"})
    assert spool.read("j1") == {"job": "j1", "state": "queued"}
    assert [path.name for path in tmp_path.iterdir()] \
        == [spool.path_for("j1").name]
