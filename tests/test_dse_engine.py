"""Tests for the high-throughput DSE engine (repro.dse.engine).

The engine's contract is *exact parity* with the sequential reference
``explore()``: same acceptance flags, same rejection kinds, same
estimator reports, same point order, same Pareto frontiers — for any
worker count, with or without memoization.
"""

import random

import pytest

from repro.dse import DseResult, explore, parallel_map, sweep
from repro.dse.engine import (
    EngineStats,
    default_chunk_size,
    resolve_workers,
)
from repro.dse.pareto import dominates, pareto_indices
from repro.dse.runner import check_acceptance
from repro.suite import (
    gemm_blocked_kernel,
    gemm_blocked_source,
    gemm_blocked_space,
    md_grid_source,
    md_grid_space,
    md_knn_kernel,
    md_knn_source,
    md_knn_space,
    stencil2d_source,
    stencil2d_space,
)


def _sampled_gemm(count=120):
    return list(gemm_blocked_space().sample(count))


def _assert_identical(a: DseResult, b: DseResult) -> None:
    assert a.total == b.total
    assert [p.config for p in a.points] == [p.config for p in b.points]
    assert [p.accepted for p in a.points] == \
        [p.accepted for p in b.points]
    assert [p.rejection for p in a.points] == \
        [p.rejection for p in b.points]
    assert [p.report for p in a.points] == [p.report for p in b.points]
    assert a._pareto_point_indices == b._pareto_point_indices
    assert a._accepted_pareto_indices == b._accepted_pareto_indices
    assert a.accepted_on_frontier() == b.accepted_on_frontier()


# -- engine/sequential parity -------------------------------------------------

@pytest.fixture(scope="module")
def gemm_reference():
    configs = _sampled_gemm()
    return configs, explore(configs, gemm_blocked_source,
                            gemm_blocked_kernel)


def test_engine_parity_single_worker(gemm_reference):
    configs, reference = gemm_reference
    result = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=1)
    _assert_identical(reference, result)


def test_engine_parity_four_workers(gemm_reference):
    configs, reference = gemm_reference
    result = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=4)
    _assert_identical(reference, result)


def test_engine_parity_without_memoization(gemm_reference):
    configs, reference = gemm_reference
    result = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=1, memoize=False)
    _assert_identical(reference, result)
    assert result.stats.checker_runs == len(configs)
    assert result.stats.memo_hits == 0


def test_engine_parity_md_knn():
    space = md_knn_space().restrict(bn=1, bg=2, bf=2)
    configs = list(space)
    reference = explore(configs, md_knn_source, md_knn_kernel)
    result = sweep(configs, md_knn_source, md_knn_kernel, workers=2,
                   chunk_size=7)
    _assert_identical(reference, result)


def test_engine_stats_accounting(gemm_reference):
    configs, _ = gemm_reference
    result = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=1)
    stats = result.stats
    assert isinstance(stats, EngineStats)
    assert stats.points == len(configs)
    assert stats.checker_runs + stats.memo_hits == len(configs)
    assert stats.checker_runs < len(configs)   # the key collapses some
    assert stats.points_per_sec > 0
    assert stats.as_dict()["points"] == len(configs)


def test_engine_stats_reports_workers_actually_used(gemm_reference):
    configs, _ = gemm_reference
    # One oversized chunk forces the inline path despite workers=8.
    inline = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=8, chunk_size=len(configs) + 1)
    assert inline.stats.workers == 1
    pooled = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=2, chunk_size=16)
    assert pooled.stats.workers == 2


def test_engine_empty_space():
    calls = []
    result = sweep([], gemm_blocked_source, gemm_blocked_kernel,
                   workers=1, progress=calls.append)
    assert result.total == 0
    assert result.pareto() == []
    assert calls == [0]


# -- memoization keys ---------------------------------------------------------

def test_acceptance_keys_sound_on_sampled_spaces():
    """Equal key ⟹ equal checker verdict (the memoization contract)."""
    for space, source in [
        (gemm_blocked_space(), gemm_blocked_source),
        (stencil2d_space(), stencil2d_source),
        (md_knn_space(), md_knn_source),
        (md_grid_space(), md_grid_source),
    ]:
        key_fn = source.acceptance_key
        verdicts = {}
        for config in space.sample(400):
            verdict = check_acceptance(source(config))
            key = key_fn(config)
            assert verdicts.setdefault(key, verdict) == verdict, \
                f"key collision with differing verdicts: {config}"


def test_memoization_shared_across_workers(gemm_reference):
    """Checker runs stay at the unique-key count for any worker count:
    the parent resolves verdicts once per key and prefills every
    worker's memo table."""
    configs, _ = gemm_reference
    one = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                workers=1)
    four = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                 workers=4)
    assert four.stats.checker_runs == one.stats.checker_runs
    assert four.stats.memo_hits == one.stats.memo_hits
    assert four.stats.checker_runs + four.stats.memo_hits == len(configs)


def test_memoization_collapses_checker_runs():
    # A dense slice (not strided) maximizes key sharing.
    configs = list(gemm_blocked_space())[:600]
    result = sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
                   workers=1)
    assert result.stats.checker_runs < len(configs) / 2
    reference = explore(configs, gemm_blocked_source,
                        gemm_blocked_kernel)
    _assert_identical(reference, result)


# -- progress reporting -------------------------------------------------------

def test_explore_progress_observes_total():
    space = stencil2d_space().restrict(ob2=3, fb2=3, u2=3, fb1=1)
    calls = []
    result = explore(space, stencil2d_source,
                     lambda cfg: gemm_blocked_kernel(
                         next(iter(gemm_blocked_space().sample(1)))),
                     progress=calls.append)
    assert calls[-1] == result.total


def test_engine_progress_monotone_and_final(gemm_reference):
    configs, _ = gemm_reference
    calls = []
    sweep(configs, gemm_blocked_source, gemm_blocked_kernel,
          workers=1, chunk_size=16, progress=calls.append)
    assert calls == sorted(calls)
    assert calls[-1] == len(configs)


# -- DseResult caching --------------------------------------------------------

def test_dse_result_caches_filtered_views(gemm_reference):
    _, result = gemm_reference
    assert result.accepted is result.accepted          # cached object
    assert result.objective_matrix is result.objective_matrix
    assert result.objective_matrix.shape == (result.total, 5)
    assert result.pareto() == result.pareto()
    # acceptance_rate consistent with the cached list
    assert result.acceptance_rate == \
        pytest.approx(len(result.accepted) / result.total)


def test_rejection_counts(gemm_reference):
    _, result = gemm_reference
    counts = result.rejection_counts()
    assert sum(counts.values()) == \
        sum(1 for p in result.points if p.rejection)
    assert list(counts) == sorted(counts)


# -- vectorized Pareto vs naive reference ------------------------------------

def _naive_pareto(points):
    return [i for i, p in enumerate(points)
            if not any(dominates(q, p)
                       for j, q in enumerate(points) if j != i)]


def test_pareto_matches_naive_on_random_5objective_sets():
    rng = random.Random(20260729)
    for _ in range(60):
        n = rng.randrange(0, 80)
        points = [tuple(rng.randrange(0, 6) for _ in range(5))
                  for _ in range(n)]
        assert pareto_indices(points) == _naive_pareto(points)


def test_pareto_stable_order_contract():
    points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (1.0, 3.0)]
    indices = pareto_indices(points)
    assert indices == sorted(indices)
    assert indices == [0, 1, 2, 3]        # duplicates both survive


def test_pareto_blocked_scan_crosses_block_boundary():
    # > _BLOCK points where a frontier point from an early block
    # dominates points in later blocks.
    points = [(0.0, 0.0)] + [(float(i), 1.0) for i in range(1, 600)]
    assert pareto_indices(points) == [0]


# -- helpers ------------------------------------------------------------------

def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(None) == 3
    monkeypatch.setenv("REPRO_WORKERS", "bogus")
    assert resolve_workers(None) >= 1    # garbage env falls back
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_workers(2) == 2
    assert resolve_workers(0) == 1
    assert resolve_workers(None) >= 1


def test_default_chunk_size_bounds():
    assert default_chunk_size(0, 4) == 1
    assert 1 <= default_chunk_size(100, 4) <= 256
    assert default_chunk_size(1_000_000, 4) == 256


def _square(x):
    return x * x


def test_parallel_map_order_preserved():
    items = list(range(37))
    assert parallel_map(_square, items, workers=1) == \
        [x * x for x in items]
    assert parallel_map(_square, items, workers=3) == \
        [x * x for x in items]


def _fail(x):
    raise ValueError(f"no answer for {x}")


def test_parallel_map_propagates_an_error_raised_everywhere():
    """A worker's error is redone inline; one the caller raises too
    is the map's own."""
    with pytest.raises(ValueError, match="no answer for"):
        parallel_map(_fail, list(range(8)), workers=2)


def _run_child(*argv):
    """Run ``python -c *argv`` with this checkout's ``src`` on the path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_engine_loads_no_process_pool():
    """The pool machinery is imported when a map first forks, not with
    the package: every in-process sweep at one worker, and every
    process that imports ``repro.dse``, would pay for it otherwise."""
    loaded = _run_child(
        "import sys, repro.dse; print(sorted(set(sys.modules) & "
        "{'multiprocessing', 'concurrent.futures.process'}))")
    assert loaded.strip() == "[]"


# -- a pool worker that dies or raises ----------------------------------------

#: Runs in a child interpreter, so a map that waits forever on a dead
#: worker fails the test by timeout instead of hanging the suite.
#: ``argv``: the flag file the first failing worker creates, the mode,
#: and how that worker fails (``exit`` or ``raise``).
_DIE_ONCE_SCRIPT = """
import json, os, sys

from repro.dse import parallel_map, sweep
from repro.suite import stencil2d_kernel, stencil2d_source, stencil2d_space

FLAG, MODE, HOW, PARENT = sys.argv[1:4] + [os.getpid()]


def die_once():
    # The first pool worker to get here fails; the parent never does.
    if os.getpid() != PARENT:
        try:
            os.close(os.open(FLAG, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        if HOW == "raise":
            raise RuntimeError("injected worker error")
        os._exit(3)


def square_once(x):
    die_once()
    return x * x


def kernel_once(config):
    die_once()
    return stencil2d_kernel(config)


if MODE == "map":
    print(json.dumps(parallel_map(square_once, list(range(40)),
                                  workers=2)))
else:
    configs = list(stencil2d_space().sample(60))
    runs = [sweep(configs, stencil2d_source, kernel, workers=workers,
                  mode="frontier")
            for workers, kernel in ((1, stencil2d_kernel),
                                    (2, kernel_once))]
    print(json.dumps([repr((result.frontier_indices, result.trajectory,
                            result.converged, result.candidates,
                            [point.report for point in result.frontier]))
                      for result in runs]))
"""


def _run_die_once(tmp_path, mode, how="exit"):
    import json

    stdout = _run_child(_DIE_ONCE_SCRIPT, str(tmp_path / "died"), mode,
                        how)
    assert (tmp_path / "died").exists()      # a worker really failed
    return json.loads(stdout)


def test_parallel_map_survives_a_worker_dying(tmp_path):
    assert _run_die_once(tmp_path, "map") == [x * x for x in range(40)]


def test_frontier_sweep_survives_a_worker_dying(tmp_path):
    one_worker, two_workers = _run_die_once(tmp_path, "frontier")
    assert two_workers == one_worker


def test_frontier_sweep_survives_a_worker_raising(tmp_path):
    one_worker, two_workers = _run_die_once(tmp_path, "frontier", "raise")
    assert two_workers == one_worker
