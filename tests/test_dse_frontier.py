"""Frontier-guided adaptive DSE: parity, soundness, and streaming.

The adaptive mode's whole correctness story is the exhaustive engine:

* :class:`~repro.dse.frontier.IncrementalFrontier` must equal the
  batch skyline (:func:`~repro.dse.pareto.pareto_indices`) for *any*
  insertion order, ties and duplicates included;
* :func:`~repro.hls.estimator.estimate_bounds` must be a certified
  componentwise lower bound on the full estimate for every
  configuration (accepted or not) — the pruning soundness certificate;
* a converged :func:`~repro.dse.frontier.frontier_sweep` must return
  the byte-identical accepted-Pareto index set on every seed family
  while evaluating a small fraction of the space;
* the streaming ``/dse`` mode must emit monotonically-versioned
  updates whose final result equals the buffered response.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dse import (
    IncrementalFrontier,
    ParameterSpace,
    dominance_mask,
    dominates,
    frontier_sweep,
    pareto_indices,
    sweep,
)
from repro.hls.estimator import estimate, estimate_bounds
from repro.service.pipeline import dse_frontier_summary, dse_summary
from repro.suite import generators

#: Keys of the engine dict that vary run to run (wall-clock derived).
VOLATILE_ENGINE_KEYS = ("elapsed_s", "points_per_sec")

FAMILY_SAMPLES = {
    "gemm-blocked": 400,
    "md-grid": 400,
    "md-knn": 400,
    "stencil2d": 400,
}


def family_triple(name):
    return generators.resolve_family(name)


def sampled_configs(name, count):
    space_fn, source_fn, kernel_fn = family_triple(name)
    return list(space_fn().sample(count)), source_fn, kernel_fn


def strip_volatile(summary):
    clean = dict(summary)
    clean["engine"] = {k: v for k, v in summary["engine"].items()
                      if k not in VOLATILE_ENGINE_KEYS}
    return clean


# ---------------------------------------------------------------------------
# IncrementalFrontier == batch skyline, any insertion order
# ---------------------------------------------------------------------------

points_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    min_size=0, max_size=24)


@settings(max_examples=120, deadline=None)
@given(points=points_strategy, seed=st.integers(0, 2**16))
def test_incremental_frontier_matches_batch_any_order(points, seed):
    """For any point set (duplicates included) and any insertion
    order, the incremental skyline equals ``pareto_indices``."""
    rows = [tuple(float(v) for v in p) for p in points]
    expected = pareto_indices(rows)
    order = list(range(len(rows)))
    np.random.default_rng(seed).shuffle(order)
    frontier = IncrementalFrontier()
    for index in order:
        frontier.insert(index, rows[index])
    assert frontier.indices() == expected


@settings(max_examples=60, deadline=None)
@given(points=points_strategy)
def test_incremental_frontier_version_monotone(points):
    """The version counter only advances, exactly on mutations."""
    frontier = IncrementalFrontier()
    last = frontier.version
    assert last == 0
    for index, point in enumerate(points):
        changed = frontier.insert(index,
                                  tuple(float(v) for v in point))
        assert frontier.version == last + (1 if changed else 0)
        last = frontier.version


def test_incremental_frontier_keeps_duplicates():
    """Equal points tie — both stay, matching the batch skyline."""
    frontier = IncrementalFrontier()
    assert frontier.insert(0, (1.0, 2.0))
    assert frontier.insert(1, (1.0, 2.0))
    assert frontier.indices() == [0, 1]
    # A dominator evicts both at once.
    assert frontier.insert(2, (0.0, 2.0))
    assert frontier.indices() == [2]
    assert frontier.version == 3


def test_incremental_frontier_entries_ordered():
    frontier = IncrementalFrontier()
    frontier.insert(5, (3.0, 1.0))
    frontier.insert(2, (1.0, 3.0))
    assert [index for index, _ in frontier.entries()] == [2, 5]


@settings(max_examples=80, deadline=None)
@given(front=points_strategy, points=points_strategy)
def test_dominance_mask_matches_bruteforce(front, points):
    front_rows = [tuple(float(v) for v in p) for p in front]
    point_rows = [tuple(float(v) for v in p) for p in points]
    mask = dominance_mask(np.asarray(front_rows, dtype=float)
                          if front_rows else np.empty((0, 3)),
                          np.asarray(point_rows, dtype=float)
                          if point_rows else np.empty((0, 3)))
    expected = [any(dominates(f, p) for f in front_rows)
                for p in point_rows]
    assert mask.tolist() == expected


# ---------------------------------------------------------------------------
# The pruning certificate: bound ≤ truth, everywhere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(generators.DSE_FAMILIES))
def test_estimate_bounds_certified_lower_bound(family):
    """``estimate_bounds`` never exceeds the real objectives on any
    configuration — accepted or rejected — of any seed family."""
    space_fn, _, kernel_fn = family_triple(family)
    for config in space_fn().sample(300):
        kernel = kernel_fn(config)
        lower = estimate_bounds(kernel)
        actual = estimate(kernel).objectives
        assert all(lo <= hi for lo, hi in zip(lower, actual)), (
            family, config, lower, actual)


def test_estimate_bounds_brams_exact():
    """BRAMs are a pure function of array geometry: bound == truth."""
    space_fn, _, kernel_fn = family_triple("gemm-blocked")
    for config in space_fn().sample(50):
        kernel = kernel_fn(config)
        assert estimate_bounds(kernel)[3] == \
            estimate(kernel).objectives[3]


# ---------------------------------------------------------------------------
# Convergence parity: adaptive == exhaustive oracle, per family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(generators.DSE_FAMILIES))
def test_frontier_converges_to_oracle(family):
    configs, source_fn, kernel_fn = sampled_configs(
        family, FAMILY_SAMPLES[family])
    oracle = sweep(configs, source_fn, kernel_fn, workers=1)
    result = frontier_sweep(configs, source_fn, kernel_fn, workers=1)
    assert result.converged
    assert result.frontier_indices == oracle.accepted_pareto_indices
    assert [p.config for p in result.frontier] == \
        [p.config for p in oracle.accepted_pareto()]
    assert [p.report for p in result.frontier] == \
        [p.report for p in oracle.accepted_pareto()]
    # The point of the mode: a small fraction of the space evaluated.
    stats = result.stats
    assert stats.points_evaluated <= 0.25 * len(configs)
    # Accounting invariants shared with the exhaustive engine.
    assert stats.checker_runs + stats.memo_hits == stats.points
    assert stats.points == len(configs)
    assert stats.points_evaluated <= stats.points_proposed \
        or stats.points_proposed == stats.points_evaluated
    assert stats.frontier_versions >= len(result.frontier)
    assert len(result.frontier) == len(oracle.accepted_pareto())


@pytest.mark.parametrize("batch_size", [1, 3, 64])
def test_frontier_parity_any_batch_size(batch_size):
    """The converged frontier is independent of batching."""
    configs, source_fn, kernel_fn = sampled_configs("stencil2d", 300)
    oracle = sweep(configs, source_fn, kernel_fn, workers=1)
    result = frontier_sweep(configs, source_fn, kernel_fn, workers=1,
                            batch_size=batch_size)
    assert result.converged
    assert result.frontier_indices == oracle.accepted_pareto_indices


def test_frontier_parity_with_workers():
    """Engine-parallel batches produce the same frontier."""
    configs, source_fn, kernel_fn = sampled_configs("gemm-blocked", 300)
    solo = frontier_sweep(configs, source_fn, kernel_fn, workers=1)
    fleet = frontier_sweep(configs, source_fn, kernel_fn, workers=2)
    assert solo.frontier_indices == fleet.frontier_indices
    assert [p.report for p in solo.frontier] == \
        [p.report for p in fleet.frontier]


def test_frontier_budget_caps_evaluations():
    configs, source_fn, kernel_fn = sampled_configs("stencil2d", 300)
    full = frontier_sweep(configs, source_fn, kernel_fn, workers=1)
    budget = max(1, full.stats.points_evaluated - 2)
    capped = frontier_sweep(configs, source_fn, kernel_fn, workers=1,
                            budget=budget)
    assert not capped.converged
    assert capped.stats.points_evaluated <= budget
    # The partial frontier only contains truly evaluated points, and
    # every one of them is non-dominated among the evaluated set.
    for point in capped.frontier:
        assert point.accepted
    # Trajectory is monotone in evaluations and versions.
    evaluations = [row["evaluated"] for row in capped.trajectory]
    versions = [row["version"] for row in capped.trajectory]
    assert evaluations == sorted(evaluations)
    assert versions == sorted(versions)


def test_frontier_budget_zero_and_empty_space():
    configs, source_fn, kernel_fn = sampled_configs("stencil2d", 120)
    zero = frontier_sweep(configs, source_fn, kernel_fn, workers=1,
                          budget=0)
    assert zero.stats.points_evaluated == 0
    assert zero.frontier == []
    assert not zero.converged        # candidates remained unevaluated
    empty = frontier_sweep([], source_fn, kernel_fn, workers=1)
    assert empty.converged
    assert empty.frontier == []
    assert empty.stats.points == 0


def test_frontier_updates_observe_monotone_versions():
    configs, source_fn, kernel_fn = sampled_configs("gemm-blocked", 400)
    seen = []
    result = frontier_sweep(configs, source_fn, kernel_fn, workers=1,
                            batch_size=2, on_update=seen.append)
    versions = [update["version"] for update in seen]
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)
    assert seen, "a non-empty frontier must emit at least one update"
    final = seen[-1]
    assert final["version"] == result.stats.frontier_versions
    assert [entry["config"] for entry in final["frontier"]] == \
        [p.config for p in result.frontier]


def test_sweep_mode_dispatch():
    configs, source_fn, kernel_fn = sampled_configs("stencil2d", 60)
    adaptive = sweep(configs, source_fn, kernel_fn, workers=1,
                     mode="frontier")
    assert adaptive.converged
    with pytest.raises(ValueError, match="unknown sweep mode"):
        sweep(configs, source_fn, kernel_fn, mode="genetic")
    with pytest.raises(ValueError, match="mode='frontier'"):
        sweep(configs, source_fn, kernel_fn, budget=5)


# ---------------------------------------------------------------------------
# Reproducible sampling (the --sample-seed satellite)
# ---------------------------------------------------------------------------

def test_sample_seed_reproducible_and_distinct():
    space = generators.gemm_blocked_space()
    first = list(space.sample(50, seed=7))
    again = list(space.sample(50, seed=7))
    other = list(space.sample(50, seed=8))
    strided = list(space.sample(50))
    assert first == again
    assert first != other
    assert first != strided
    assert len(first) == 50
    # Enumeration order is preserved (positions ascend).
    full = list(space)
    positions = [full.index(config) for config in first]
    assert positions == sorted(positions)


def test_sample_seed_full_space_passthrough():
    space = ParameterSpace.of(a=[1, 2], b=[3, 4])
    assert list(space.sample(10, seed=3)) == list(space)


def test_frontier_summary_sample_seed_threads_through():
    one = dse_frontier_summary("stencil2d", sample=100, sample_seed=11,
                               workers=1)
    two = dse_frontier_summary("stencil2d", sample=100, sample_seed=11,
                               workers=1)
    assert strip_volatile(one) == strip_volatile(two)


# ---------------------------------------------------------------------------
# Pipeline summary surface
# ---------------------------------------------------------------------------

def test_frontier_summary_structure_and_oracle_parity():
    summary = dse_frontier_summary("md-knn", sample=300, workers=1)
    assert summary["mode"] == "frontier"
    assert summary["converged"]
    assert summary["evaluated"] == \
        summary["engine"]["points_evaluated"]
    assert summary["evaluated_fraction"] <= 0.25
    assert summary["frontier_size"] == len(summary["frontier"])
    assert summary["frontier_versions"] >= summary["frontier_size"]
    assert summary["trajectory"][-1]["evaluated"] == \
        summary["evaluated"]
    exhaustive = dse_summary("md-knn", sample=300, workers=1)
    assert summary["frontier_size"] == exhaustive["accepted_pareto"]
    json.dumps(summary)              # JSON-ready end to end


def test_frontier_summary_unknown_space_message():
    with pytest.raises(ValueError) as excinfo:
        dse_frontier_summary("warp-drive")
    assert str(excinfo.value) == (
        "unknown DSE space 'warp-drive' (choose from: gemm-blocked, "
        "md-grid, md-knn, stencil2d)")


def test_frontier_summary_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        dse_frontier_summary("stencil2d", budget=-1)


# ---------------------------------------------------------------------------
# Streaming /dse over a real server
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def background_server():
    from repro.service import BackgroundServer, DahliaService

    with BackgroundServer(DahliaService(dse_workers=2)) as server:
        yield server


@pytest.fixture(scope="module")
def stream_client(background_server):
    from repro.service import ServiceClient

    client = ServiceClient(port=background_server.port)
    client.wait_ready()
    return client


def test_stream_conformance(stream_client):
    """Streamed updates are monotonically versioned and the final
    result equals the buffered response (minus wall-clock noise)."""
    buffered = stream_client.dse("stencil2d", sample=300,
                                 mode="frontier")
    events = list(stream_client.dse_stream("stencil2d", sample=300))
    assert [e["type"] for e in events[:-1]] == \
        ["frontier"] * (len(events) - 1)
    assert events[-1]["type"] == "result"
    versions = [e["version"] for e in events if e["type"] == "frontier"]
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)
    streamed = events[-1]["payload"]
    assert strip_volatile({k: v for k, v in streamed.items()
                           if k != "ok"}) == \
        strip_volatile({k: v for k, v in buffered.items()
                        if k != "ok"})
    # The last update is the final frontier.
    assert events[-2]["frontier"] == streamed["frontier"]


def test_stream_then_keepalive_requests_still_work(stream_client):
    list(stream_client.dse_stream("stencil2d", sample=120))
    assert stream_client.health()["ok"]
    assert stream_client.dse("stencil2d", sample=120)["ok"]


def test_stream_error_surfaces(stream_client):
    from repro.service import ServiceError

    with pytest.raises(ServiceError) as excinfo:
        list(stream_client.dse_stream("warp-drive"))
    assert excinfo.value.status == 400
    assert "unknown DSE space" in str(excinfo.value)
    # stream without frontier mode is rejected on the buffered path.
    with pytest.raises(ServiceError) as excinfo:
        stream_client.request("POST", "/dse", {
            "space": "stencil2d", "stream": True})
    assert excinfo.value.status == 400
    assert '"mode": "frontier"' in str(excinfo.value)
    with pytest.raises(ServiceError) as excinfo:
        stream_client.dse("stencil2d", budget=4)
    assert excinfo.value.status == 400


def test_dse_metrics_counters(stream_client):
    before = stream_client.metrics()["dse"]
    stream_client.dse("stencil2d", sample=120, mode="frontier")
    list(stream_client.dse_stream("stencil2d", sample=120))
    after = stream_client.metrics()["dse"]
    assert after["requests"] >= before["requests"] + 2
    assert after["frontier_requests"] >= before["frontier_requests"] + 2
    assert after["stream_requests"] >= before["stream_requests"] + 1
    assert after["points_evaluated"] > before["points_evaluated"]
    assert after["frontier_updates"] > before["frontier_updates"]


def test_stream_cli_flags(tmp_path, capsys):
    from repro.cli import main

    assert main(["dse", "stencil2d", "--sample", "120", "--mode",
                 "frontier", "--stream"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    updates = [json.loads(line) for line in lines
               if line.startswith("{")]
    assert updates and all(u["type"] == "frontier" for u in updates)
    assert "frontier of" in out
    assert main(["dse", "stencil2d", "--budget", "3"]) == 1
    assert "--mode frontier" in capsys.readouterr().err
    assert main(["dse", "stencil2d", "--sample", "120", "--mode",
                 "frontier", "--budget", "2", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "frontier"
    assert not summary["converged"]
    assert summary["evaluated"] <= 2
