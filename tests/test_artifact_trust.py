"""Cached bytes can never run code or become a verdict.

The service memoizes checker verdicts under content-addressed keys, so
its store may only ever hold values the pipeline computed. Bytes reach
it from three places — ``/cas`` requests, the disk tier and fleet
peers — and each test here plants hostile bytes in one of them:

* ``PUT /cas`` is not served: a pickle that opens a file, or a forged
  ``ok: true`` verdict for a rejected program, gets 405;
* a pickle planted in the disk tier, or served by a peer under a
  correct checksum, is a miss counted as ``corrupt`` and runs nothing;
* :func:`~repro.service.artifacts.decode` admits only artifact types
  and numpy's array reduction, yet every artifact the pipeline writes
  still decodes — so the allowlist cannot silently turn the disk tier
  into misses;
* ``GET /cas`` serves no file outside the disk tier.
"""

import hashlib
import json
import pickle
import re
import urllib.parse

import numpy as np
import pytest

from repro.ir.resolved import ResolvedProgram
from repro.service import (
    BackgroundServer,
    CompilerPipeline,
    DahliaService,
    DiskStore,
    ServiceClient,
    artifact_key,
    prewarm_corpus,
)
from repro.service.artifacts import ArtifactKey, decode
from repro.suite.generators import DSE_FAMILIES

from test_fabric import fetch_through_tampered_peer, make_source

#: ``unroll 4`` over ``bank 2``: the checker rejects it.
REJECTED = ("decl A: float[8 bank 2]; "
            "for (let i = 0..8) unroll 4 { A[i] := 1.0; }")


class OpensMarker:
    """Unpickling this opens ``path`` for writing: bytes that ran code."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def marker_pickle(path) -> bytes:
    return pickle.dumps(OpensMarker(path), protocol=pickle.HIGHEST_PROTOCOL)


def put_cas(client: ServiceClient, key: ArtifactKey, blob: bytes) -> int:
    """Push ``blob`` the way the removed ``PUT /cas`` route took it."""
    checksum = hashlib.sha256(blob).hexdigest()
    status, _ = client.raw(
        "PUT", f"/cas/{key.digest}?stage={key.stage}&sha256={checksum}",
        blob)
    return status


def test_marker_pickle_runs_code_under_plain_pickle(tmp_path):
    """The hostile input is live: plain ``pickle.loads`` runs it."""
    marker = tmp_path / "marker"
    pickle.loads(marker_pickle(marker)).close()
    assert marker.exists()


# ---------------------------------------------------------------------------
# PUT /cas is gone
# ---------------------------------------------------------------------------

def test_put_cas_is_405_and_runs_no_code(tmp_path):
    marker = tmp_path / "marker"
    key = artifact_key("check_payload", REJECTED, {})
    with BackgroundServer(DahliaService()) as node:
        client = ServiceClient(host=node.host, port=node.port)
        assert put_cas(client, key, marker_pickle(marker)) == 405
    assert not marker.exists()


def test_forged_verdict_push_is_405_and_check_still_rejects():
    forged = pickle.dumps({"ok": True, "memories": 1, "max_replication": 4})
    key = artifact_key("check_payload", REJECTED, {})
    with BackgroundServer(DahliaService()) as node:
        # The forgery targets the key /check really reads.
        assert node.service.pipeline.key("check_payload", REJECTED) == key
        client = ServiceClient(host=node.host, port=node.port)
        assert put_cas(client, key, forged) == 405
        status, body = client.raw("POST", "/check", {"source": REJECTED})
    assert status == 200
    assert json.loads(body)["ok"] is False


def test_cas_serves_no_file_outside_the_tier(tmp_path):
    """``GET /cas`` must not build a path from an unchecked name.

    Digest ``...`` shards into ``..`` and ``.``, and the stage
    ``/trav/secret`` completes ``cache/../../trav/secret.pkl``: the
    file beside the cache directory.
    """
    secret = tmp_path / "trav" / "secret.pkl"
    secret.parent.mkdir()
    secret.write_bytes(b"not for peers")
    service = DahliaService(cache_dir=tmp_path / "trav" / "cache")
    with BackgroundServer(service) as node:
        client = ServiceClient(host=node.host, port=node.port)
        stage = urllib.parse.quote("/trav/secret", safe="")
        status, body = client.raw("GET", f"/cas/...?stage={stage}")
    assert status == 404
    assert body != secret.read_bytes()


# ---------------------------------------------------------------------------
# Planted or peer-served pickles are corrupt misses
# ---------------------------------------------------------------------------

def test_code_pickle_planted_on_disk_is_a_corrupt_miss(tmp_path):
    marker = tmp_path / "marker"
    disk = DiskStore(tmp_path / "cache")
    key = artifact_key("check_payload", REJECTED, {})
    path = disk.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(marker_pickle(marker))

    default = object()
    assert disk.get(key, default) is default
    assert disk.stats()["corrupt"] == 1
    assert not path.exists()                       # dropped, not retried
    assert not marker.exists()


def test_peer_serving_a_code_pickle_is_a_corrupt_miss(tmp_path):
    marker = tmp_path / "marker"
    blob = marker_pickle(marker)
    expected, served, remote = fetch_through_tampered_peer(
        tmp_path, make_source(5), lambda path: path.write_bytes(blob))
    assert expected[0] == 200
    assert served == expected                      # a local compute's bytes
    assert remote["corrupt"] > 0
    assert remote["hits"] == 0
    assert not marker.exists()


# ---------------------------------------------------------------------------
# decode: the allowlist
# ---------------------------------------------------------------------------

def global_pickle(module: str, name: str) -> bytes:
    """A protocol-4 pickle whose whole value is the global ``module.name``."""
    def text(value: str) -> bytes:
        data = value.encode()
        return b"\x8c" + bytes([len(data)]) + data    # SHORT_BINUNICODE
    return b"\x80\x04" + text(module) + text(name) + b"\x93."


@pytest.mark.parametrize("module,name", [
    ("repro.util.fsio", "atomic_write"),
    ("repro.service.artifacts", "DiskStore"),
    ("repro.ir.resolved", "ResolvedProgram.from_source"),
    ("repro.service", "ArtifactKey"),
    ("builtins", "eval"),
], ids=["function", "non-artifact-class", "dotted-name", "re-export",
        "builtin"])
def test_decode_rejects_globals_outside_the_allowlist(module, name):
    blob = global_pickle(module, name)
    assert callable(pickle.loads(blob))            # the name is real
    with pytest.raises(pickle.UnpicklingError):
        decode(blob)


class ObjectArrayOverBuffer:
    """Unpickling this calls ``numpy.ndarray`` itself on a raw buffer."""

    def __reduce__(self):
        return np.ndarray, ((1,), np.dtype(object), bytearray(8))


def test_decode_builds_no_object_array_over_a_raw_buffer():
    with pytest.raises(TypeError):
        decode(pickle.dumps(ObjectArrayOverBuffer(),
                            protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("array", [
    np.arange(6, dtype=np.int64).reshape(2, 3),
    np.asfortranarray(np.ones((2, 3))),
    np.arange(10)[::3],
    np.array([1, "x", None], dtype=object),
], ids=["c-order", "f-order", "strided", "object"])
def test_decode_rebuilds_numpy_arrays(array):
    back = decode(pickle.dumps(array, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is np.ndarray
    assert back.dtype == array.dtype
    assert np.array_equal(back, array)


#: Every servable payload, plus the raw stages with their own types.
STAGES = ("check_payload", "estimate_payload", "compile_payload",
          "rtl_payload", "interp_payload", "rtl", "interp", "desugar")


def warm_everything(pipeline: CompilerPipeline) -> None:
    prewarm_corpus(pipeline, stages=STAGES)
    # Interpreting one gemm-blocked configuration takes ~50 s, so the
    # families stop short of the interpreter; the corpus covers it.
    prewarm_corpus(pipeline, families=sorted(DSE_FAMILIES), sample=2,
                   include_corpus=False,
                   stages=[stage for stage in STAGES
                           if "interp" not in stage])


def disk_key(path) -> ArtifactKey:
    """The key of a disk-tier file ``ab/12cd….stage.pkl``."""
    rest, stage, _ = path.name.split(".")
    return ArtifactKey(stage, path.parent.name + rest)


def test_every_pipeline_artifact_decodes_through_the_allowlist(tmp_path):
    warm = CompilerPipeline(disk=tmp_path, capacity=100_000)
    warm_everything(warm)
    keys = [disk_key(path) for path in sorted(tmp_path.glob("??/*.pkl"))]
    assert {key.stage for key in keys} >= set(STAGES)
    for key in keys:                               # nameable via GET /cas
        assert re.fullmatch(r"[0-9a-f]{64}", key.digest)
        assert re.fullmatch(r"[a-z_]+", key.stage)

    # A second pipeline on the same directory serves the walk from
    # disk, then reads every artifact file back: none is corrupt.
    fresh = CompilerPipeline(disk=tmp_path, capacity=100_000)
    warm_everything(fresh)
    assert fresh.stats()["disk"]["hits"] > 0
    missing = object()
    for key in keys:
        assert fresh.store.disk.get(key, missing) is not missing, key
    assert fresh.stats()["disk"]["corrupt"] == 0

    # Memory-tier values, pickled after the checks memoized their
    # verdicts (what /cas serves a peer), decode to the same bytes.
    verdicts = set()
    for key in keys:
        blob = warm.store.peek_blob(key)
        value = decode(blob)
        assert pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL) == blob
        if isinstance(value, ResolvedProgram) and value.checked:
            verdicts.add(value.checked_ok)
    assert verdicts == {True, False}       # CheckReports and DahliaErrors
