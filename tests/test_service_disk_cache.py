"""Tests for the persistent (on-disk) artifact tier.

The headline contracts:

* **Restart parity** — a fresh pipeline pointed at a warm directory
  serves byte-identical payloads without recomputing (disk hits > 0);
* **Multi-process soundness hygiene** — atomic publication, corruption
  tolerance, mtime-LRU eviction under a size cap.
"""

import os
import pickle
import threading

import pytest

from repro.service import (
    ArtifactStore,
    CompilerPipeline,
    DiskStore,
    artifact_key,
    encode_payload,
)

GOOD = """
decl A: float[8 bank 2];
for (let i = 0..8) unroll 2 {
  A[i] := 1.0;
}
"""

BAD = """
decl A: float[8];
let x = A[0];
A[1] := 1.0
"""


# ---------------------------------------------------------------------------
# DiskStore mechanics
# ---------------------------------------------------------------------------

def test_round_trip_and_sharded_layout(tmp_path):
    disk = DiskStore(tmp_path)
    key = artifact_key("check", "decl A: float[4];")
    disk.put(key, {"ok": True, "memories": 1})
    assert key in disk
    assert disk.get(key) == {"ok": True, "memories": 1}
    path = disk.path_for(key)
    assert path.exists()
    assert path.parent.name == key.digest[:2]      # two-hex-char shard
    assert path.parent.parent == tmp_path


def test_missing_key_is_a_miss(tmp_path):
    disk = DiskStore(tmp_path)
    sentinel = object()
    assert disk.get(artifact_key("s", "nope"), sentinel) is sentinel
    assert disk.stats()["misses"] == 1


def test_cached_none_round_trips(tmp_path):
    disk = DiskStore(tmp_path)
    key = artifact_key("s", "none-valued")
    disk.put(key, None)
    assert disk.get(key, "default") is None


def test_corrupt_file_is_a_miss_and_removed(tmp_path):
    disk = DiskStore(tmp_path)
    key = artifact_key("check", "src")
    disk.put(key, "value")
    disk.path_for(key).write_bytes(b"not a pickle")
    sentinel = object()
    assert disk.get(key, sentinel) is sentinel
    assert not disk.path_for(key).exists()         # dropped, not retried
    stats = disk.stats()
    assert stats["corrupt"] == 1
    assert stats["misses"] == 1


def test_truncated_file_is_tolerated(tmp_path):
    disk = DiskStore(tmp_path)
    key = artifact_key("check", "src")
    disk.put(key, list(range(1000)))
    path = disk.path_for(key)
    path.write_bytes(path.read_bytes()[:10])       # torn write simulation
    assert disk.get(key, "missing") == "missing"
    assert disk.stats()["corrupt"] == 1


def test_unpicklable_values_are_skipped(tmp_path):
    disk = DiskStore(tmp_path)
    key = artifact_key("s", "lambda")
    disk.put(key, lambda: None)
    assert key not in disk
    assert disk.stats()["unpicklable"] == 1


def test_no_temp_file_debris_after_puts(tmp_path):
    disk = DiskStore(tmp_path)
    for i in range(20):
        disk.put(artifact_key("s", f"src{i}"), i)
    assert not list(tmp_path.glob(".tmp-*"))


def test_eviction_drops_stalest_first(tmp_path):
    disk = DiskStore(tmp_path, max_bytes=1)        # everything over cap
    old = artifact_key("s", "old")
    new = artifact_key("s", "new")
    disk.put(old, "x" * 100)
    disk.put(new, "y" * 100)
    past = disk.path_for(old).stat().st_mtime - 1000
    os.utime(disk.path_for(old), (past, past))
    disk._sweep()
    assert old not in disk
    assert disk.stats()["evictions"] >= 1


def test_hit_refreshes_mtime_for_lru(tmp_path):
    disk = DiskStore(tmp_path)
    key = artifact_key("s", "touched")
    disk.put(key, 1)
    path = disk.path_for(key)
    past = path.stat().st_mtime - 1000
    os.utime(path, (past, past))
    disk.get(key)
    assert path.stat().st_mtime > past + 500


def test_init_sweep_enforces_cap_on_preexisting_tier(tmp_path):
    first = DiskStore(tmp_path)
    for i in range(16):
        first.put(artifact_key("s", f"src{i}"), "z" * 200)
    files_before = first.usage()[0]
    reopened = DiskStore(tmp_path, max_bytes=500)
    assert reopened.usage()[1] <= 500
    assert reopened.usage()[0] < files_before


def test_max_bytes_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        DiskStore(tmp_path, max_bytes=0)


def test_foreign_files_in_root_are_ignored(tmp_path):
    (tmp_path / "README.txt").write_text("not an artifact")
    disk = DiskStore(tmp_path)
    key = artifact_key("s", "src")
    disk.put(key, 1)
    disk._sweep()
    assert (tmp_path / "README.txt").exists()      # never evicted


# ---------------------------------------------------------------------------
# ArtifactStore + disk tier
# ---------------------------------------------------------------------------

def test_memory_miss_promotes_from_disk(tmp_path):
    disk = DiskStore(tmp_path)
    writer = ArtifactStore(capacity=8, disk=disk)
    key = artifact_key("check", "shared")
    writer.put(key, "artifact")

    reader = ArtifactStore(capacity=8, disk=disk)  # cold memory tier
    assert reader.get(key) == "artifact"
    assert disk.stats()["hits"] == 1
    # Promotion: the second get is a pure memory hit.
    assert reader.get(key) == "artifact"
    assert disk.stats()["hits"] == 1
    assert reader.stats()["stages"]["check"]["hits"] == 1


def test_two_stores_share_one_directory(tmp_path):
    a = ArtifactStore(capacity=8, disk=DiskStore(tmp_path))
    b = ArtifactStore(capacity=8, disk=DiskStore(tmp_path))
    key = artifact_key("estimate", "cross-process")
    calls = []

    def compute():
        calls.append(1)
        return {"latency": 42}

    assert a.get_or_compute(key, compute) == {"latency": 42}
    assert b.get_or_compute(key, compute) == {"latency": 42}
    assert len(calls) == 1                         # b served from disk


def test_contains_and_clear_are_two_tier(tmp_path):
    store = ArtifactStore(capacity=8, disk=DiskStore(tmp_path))
    key = artifact_key("check", "two-tier")
    store.put(key, "artifact")
    fresh = ArtifactStore(capacity=8, disk=DiskStore(tmp_path))
    assert key in fresh                            # visible via disk
    fresh.clear()
    assert key not in fresh
    assert fresh.get(key, "gone") == "gone"        # no resurrection


def test_sweep_reaps_stale_temp_debris(tmp_path):
    disk = DiskStore(tmp_path)
    debris = tmp_path / ".tmp-crashed.pkl"
    debris.write_bytes(b"half-written artifact")
    past = debris.stat().st_mtime - 1000
    os.utime(debris, (past, past))
    fresh = tmp_path / ".tmp-inflight.pkl"         # someone's mid-write
    fresh.write_bytes(b"do not touch")
    disk._sweep()
    assert not debris.exists()
    assert fresh.exists()


def test_stats_without_disk_keep_historical_shape(tmp_path):
    assert "disk" not in ArtifactStore(capacity=2).stats()
    stats = ArtifactStore(capacity=2, disk=DiskStore(tmp_path)).stats()
    assert stats["disk"]["writes"] == 0


def test_disk_store_is_thread_safe_under_contention(tmp_path):
    disk = DiskStore(tmp_path)
    keys = [artifact_key("s", f"d{i}") for i in range(16)]
    errors = []

    def hammer():
        try:
            for _ in range(30):
                for key in keys:
                    disk.put(key, key.digest)
                    assert disk.get(key) == key.digest
        except Exception as error:        # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


# ---------------------------------------------------------------------------
# CompilerPipeline restart parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stage,options", [
    ("check_payload", {}),
    ("estimate_payload", {}),
    ("compile_payload", {"erase": True, "kernel_name": "widget"}),
    ("rtl_payload", {"module_name": "accel"}),
    ("interp_payload", {}),
])
def test_restarted_pipeline_serves_identical_bytes(tmp_path, stage,
                                                   options):
    cold = CompilerPipeline(disk=tmp_path)
    baseline = encode_payload(cold.run(stage, GOOD, options))

    restarted = CompilerPipeline(disk=tmp_path)    # fresh memory tier
    served = encode_payload(restarted.run(stage, GOOD, options))
    assert served == baseline
    disk_stats = restarted.stats()["disk"]
    assert disk_stats["hits"] >= 1                 # came from the tier
    assert disk_stats["writes"] == 0               # nothing recomputed


def test_restarted_server_serves_every_source_from_disk(tmp_path):
    """A server restarted on a warm cache directory answers every
    source byte-identically from the disk tier, writing nothing."""
    from repro.service import BackgroundServer, DahliaService, ServiceClient
    from repro.suite.generators import gemm_blocked_source, gemm_blocked_space

    sources = [gemm_blocked_source(config)
               for config in gemm_blocked_space().sample(6)]
    served = []
    for _ in range(2):
        with BackgroundServer(DahliaService(
                capacity=4096, cache_dir=str(tmp_path))) as node:
            client = ServiceClient(port=node.port)
            served.append([client.raw("POST", "/estimate", {"source": s})
                           for s in sources])
            disk = client.metrics()["cache"]["disk"]
    assert served[1] == served[0]
    assert {status for status, _ in served[0]} == {200}
    assert disk["hits"] >= len(sources) and disk["writes"] == 0


def test_rejections_survive_restarts_too(tmp_path):
    cold = CompilerPipeline(disk=tmp_path)
    baseline = encode_payload(cold.run("check_payload", BAD, {}))
    restarted = CompilerPipeline(disk=tmp_path)
    assert encode_payload(restarted.run("check_payload", BAD, {})) \
        == baseline
    assert restarted.stats()["disk"]["hits"] >= 1


def test_disk_artifacts_are_stage_keyed_pickles(tmp_path):
    pipeline = CompilerPipeline(disk=tmp_path)
    pipeline.run("check_payload", GOOD, {})
    names = [path.name for path in tmp_path.glob("??/*.pkl")]
    assert any(name.endswith(".check_payload.pkl") for name in names)
    for path in tmp_path.glob("??/*.pkl"):
        with open(path, "rb") as handle:
            pickle.load(handle)                    # every file loads


def test_pipeline_accepts_prebuilt_disk_store(tmp_path):
    disk = DiskStore(tmp_path, max_bytes=1 << 20)
    pipeline = CompilerPipeline(disk=disk)
    assert pipeline.store.disk is disk
    assert pipeline.stats()["disk"]["max_bytes"] == 1 << 20
