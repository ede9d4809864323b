"""Timing gates: each warm path must beat its cold baseline by a fixed
factor, and a herd of identical ``/dse`` requests must overlap.

Run from the repo root, the whole module or one gate by node id (the
CI jobs name the nodes they run, under their own environment):

    PYTHONPATH=src python -m pytest benchmarks/bench_gates.py -q -s
    PYTHONPATH=src python -m pytest "benchmarks/bench_gates.py::test_warm_estimate_beats_cold" -q

Each gate compares medians of timed samples and prints the ratio it
measured (shown with ``-s``). The deterministic halves of the same
contracts — byte parity, disk hits without writes, re-parsed segments
and replayed verdicts — are tier-1 tests under ``tests/``.
``test_herd_beats_sequential_service`` is the slow aggregate-win run
that CI leaves out.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from typing import Any, Callable

import pytest

from perfbench.edit_workload import make_source
from repro.frontend.incremental import IncrementalDocument
from repro.frontend.parser import parse
from repro.service import (
    BackgroundServer,
    CompilerPipeline,
    DahliaService,
    ServiceClient,
)
from repro.suite.generators import gemm_blocked_source, gemm_blocked_space
from repro.util import telemetry

#: Warm ``estimate_payload`` (memory tier) over cold.
REQUIRED_WARM_SPEEDUP = 10.0
#: Best round's traced/untraced warm served latency (1.05 = 5%).
TRACING_OVERHEAD_BUDGET = 1.05
#: Warm single-def edit (``apply_edits``) over a cold ``parse()``.
REQUIRED_SESSION_EDIT_SPEEDUP = 3.0
#: Warm edit-one-function compile over a whole-program cold compile.
REQUIRED_FUNCTION_EDIT_SPEEDUP = 3.0
#: Restart-warm ``estimate_payload`` (disk tier) over cold.
REQUIRED_RESTART_SPEEDUP = 5.0
#: Sequential service of the herd's requests over the herd's wall time.
REQUIRED_AGGREGATE_WIN = 5.0

#: Defs in the checker-heavy edit program.
DEFS = 12
#: Identical concurrent ``/dse`` requests in the herd.
HERD = 8
#: Exhaustive with ``memoize`` off, so every sweep is a full compute:
#: long enough for the herd to overlap, and honest for the sequential
#: arm, which pays one sweep per request.
SWEEP = {"space": "gemm-blocked", "sample": 400, "sample_seed": 5,
         "memoize": False}


def _seconds(run: Callable[..., Any], *args: Any) -> float:
    """Wall seconds of one call, with the garbage collector paused (as
    ``timeit`` does) so a collection lands in neither arm."""
    gc.disable()
    try:
        started = time.perf_counter()
        run(*args)
        return time.perf_counter() - started
    finally:
        gc.enable()


def _gate(what: str, cold: list[float], warm: list[float],
          required: float) -> None:
    ratio = statistics.median(cold) / statistics.median(warm)
    print(f"\n{what}: {ratio:.2f}x (required >= {required}x)")
    assert ratio >= required, \
        f"{what}: {ratio:.2f}x, below the required {required}x"


def _gemm_sources() -> list[str]:
    return [gemm_blocked_source(config)
            for config in gemm_blocked_space().sample(6)]


def _program(edits: dict[int, float] | None = None) -> str:
    """The edit program; ``edits`` rebinds stage constants."""
    edits = edits or {}
    return make_source([edits.get(k, float(k + 1)) for k in range(DEFS)])


# -- the artifact cache -------------------------------------------------------

def test_warm_estimate_beats_cold():
    sources = _gemm_sources()
    pipeline = CompilerPipeline(capacity=4096)
    cold = [_seconds(pipeline.run, "estimate_payload", source)
            for source in sources]
    warm = [_seconds(pipeline.run, "estimate_payload", source)
            for _ in range(3) for source in sources]
    _gate("warm estimate_payload vs cold", cold, warm,
          REQUIRED_WARM_SPEEDUP)


def test_tracing_overhead_within_budget():
    """Two loopback servers, one tracing every POST and one none, timed
    round by round so both arms share the machine's conditions; noise
    only inflates a ratio, so the best round is the estimate."""
    sources = _gemm_sources()
    with BackgroundServer(DahliaService(capacity=4096,
                                        trace_sample=1.0)) as on, \
            BackgroundServer(DahliaService(capacity=4096,
                                           trace_sample=0.0)) as off:
        traced = ServiceClient(port=on.port)
        untraced = ServiceClient(port=off.port)
        for client in (traced, untraced):
            for source in sources:
                client.estimate(source)
        ratios = []
        for _ in range(7):
            off_s = statistics.median(_seconds(untraced.estimate, source)
                                      for source in sources)
            on_s = statistics.median(_seconds(traced.estimate, source)
                                     for source in sources)
            ratios.append(on_s / off_s)
    telemetry.clear_traces()
    print(f"\nbest traced/untraced round: {min(ratios):.4f} "
          f"(budget <= {TRACING_OVERHEAD_BUDGET})")
    assert min(ratios) <= TRACING_OVERHEAD_BUDGET, \
        f"tracing costs {min(ratios):.4f}x on the warm path in every round"


def test_restart_warm_beats_cold(tmp_path):
    sources = _gemm_sources()
    cold_pipeline = CompilerPipeline(capacity=4096, disk=tmp_path)
    cold = [_seconds(cold_pipeline.run, "estimate_payload", source)
            for source in sources]
    restarted = CompilerPipeline(capacity=4096, disk=tmp_path)
    warm = [_seconds(restarted.run, "estimate_payload", source)
            for source in sources]
    _gate("restart-warm estimate_payload vs cold", cold, warm,
          REQUIRED_RESTART_SPEEDUP)


# -- incremental edits --------------------------------------------------------

def test_session_edit_beats_cold_reparse():
    """A warm single-def ``apply_edits`` against a cold ``parse()`` of
    the same post-edit text, over 12 edits."""
    document = IncrementalDocument(_program())
    warm, cold = [], []
    for index in range(12):
        anchor = document.text.index(f"def stage{index % DEFS}(")
        start = document.text.index("x * ", anchor) + len("x * ")
        end = document.text.index(";", start)
        edit = {"start": start, "end": end, "text": f"{500.5 + index}"}
        warm.append(_seconds(document.apply_edits, [edit]))
        assert document.ok and document.stats["parsed"] <= 2
        cold.append(_seconds(parse, document.text))
    _gate("warm session edit vs cold reparse", cold, warm,
          REQUIRED_SESSION_EDIT_SPEEDUP)


def _compile(pipeline: CompilerPipeline, source: str) -> None:
    for stage in ("check_payload", "compile_payload"):
        assert pipeline.run(stage, source)["ok"]


def test_one_function_edit_beats_cold_compile():
    """Warm: one pipeline, then 12 edits that each rebind one def's
    constant. Cold: a fresh pipeline per structural variant, one after
    every third edit (4 in all), so both arms share the machine's load."""
    pipeline = CompilerPipeline()
    _compile(pipeline, _program())
    cold, warm = [], []
    for index in range(12):
        warm.append(_seconds(_compile, pipeline,
                             _program({index % DEFS: 500.5 + index})))
        if index % 3 == 0:
            cold.append(_seconds(_compile, CompilerPipeline(),
                                 _program({0: 1000.0 + index})))
    assert pipeline.stats()["functions"]["reused"] >= len(warm) * (DEFS - 1)
    _gate("warm one-function edit vs cold compile", cold, warm,
          REQUIRED_FUNCTION_EDIT_SPEEDUP)


# -- /dse coalescing ----------------------------------------------------------

@pytest.fixture(scope="module")
def herd() -> tuple[list[tuple[int, bytes]], float, dict]:
    """``HERD`` identical ``/dse`` requests released at once, with the
    server's admission and executor limits at the herd size so every
    request is concurrent: ``(status, body)`` pairs, the herd's wall
    seconds, and the server's ``dse`` counters."""
    with BackgroundServer(DahliaService(), max_inflight=HERD,
                          threads=HERD + 2) as server:
        barrier = threading.Barrier(HERD)
        results: list[tuple[int, bytes]] = []

        def submit() -> None:
            client = ServiceClient(host=server.host, port=server.port,
                                   timeout=600.0)
            barrier.wait(timeout=60)
            results.append(client.raw("POST", "/dse", SWEEP))

        threads = [threading.Thread(target=submit) for _ in range(HERD)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        wall_s = time.perf_counter() - started
        metrics = ServiceClient(host=server.host,
                                port=server.port).metrics()
    return results, wall_s, metrics["dse"]


def test_herd_costs_one_sweep(herd):
    results, _, dse = herd
    assert len(results) == HERD, "a herd request never returned"
    assert [status for status, _ in results] == [200] * HERD
    assert dse["coalesced"] == HERD - 1, "the herd did not overlap"
    assert dse["points_evaluated"] == json.loads(results[0][1])["points"], \
        "more than one sweep ran"
    assert len({body for _, body in results}) == 1, \
        "coalesced responses diverged"


def test_herd_beats_sequential_service(herd):
    """The same requests one after another: no overlap, so no
    coalescing, and every request pays a sweep."""
    results, wall_s, _ = herd
    with BackgroundServer(DahliaService()) as server:
        client = ServiceClient(host=server.host, port=server.port,
                               timeout=600.0)
        total_s = 0.0
        for _ in range(HERD):
            started = time.perf_counter()
            status, _ = client.raw("POST", "/dse", SWEEP)
            total_s += time.perf_counter() - started
            assert status == 200
        dse = client.metrics()["dse"]
    assert dse["coalesced"] == 0
    assert dse["points_evaluated"] \
        == json.loads(results[0][1])["points"] * HERD, \
        "the sequential arm did not pay one sweep per request"
    print(f"\nherd aggregate win: {total_s / wall_s:.2f}x "
          f"(required >= {REQUIRED_AGGREGATE_WIN}x)")
    assert total_s / wall_s >= REQUIRED_AGGREGATE_WIN
