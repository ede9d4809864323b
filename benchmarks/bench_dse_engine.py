"""Perf-regression benchmarks for the DSE engine.

Times the sampled Fig. 7 gemm-blocked sweep through three paths:

* ``explore``  — the sequential reference implementation;
* ``engine-1`` — the engine inline (memoization + SoA, no pool);
* ``engine-N`` — the engine with the default worker fan-out;

plus the **parse-vs-check frontend split**: per-point cost of
re-parsing rendered source vs substituting into the once-parsed
family template vs the checker run itself (identical either way).
``BENCH_dse.json`` keeps the throughput and split recorded by earlier
revisions (see PERFORMANCE.md); ``perfbench/`` measures the sweep now.
"""

import time

from repro.dse import explore, sweep
from repro.suite import (
    gemm_blocked_family,
    gemm_blocked_kernel,
    gemm_blocked_source,
    gemm_blocked_space,
)

from .helpers import print_table

SAMPLE = 600


def measure_parse_check_split(configs, family, source_fn) -> dict:
    """Per-point frontend cost split over ``configs``.

    Times the three frontend strategies a sweep could use per checker
    run: re-parse the rendered source, template-substitute the
    once-parsed AST, and the checker run itself (identical either
    way). Template parses are excluded by prebuilding every touched
    variant — exactly what a sweep amortizes.
    """
    from repro.errors import DahliaError
    from repro.frontend.parser import parse
    from repro.types.checker import check_program

    sources = [source_fn(config) for config in configs]

    started = time.perf_counter()
    programs = [parse(source) for source in sources]
    parse_s = time.perf_counter() - started

    for config in configs:                 # prebuild variant templates
        family.template_for(config)
    started = time.perf_counter()
    substituted = [family.instantiate(config) for config in configs]
    substitute_s = time.perf_counter() - started

    started = time.perf_counter()
    for program in substituted:
        try:
            check_program(program)
        except DahliaError:
            pass
    check_s = time.perf_counter() - started
    del programs

    n = max(1, len(configs))
    frontend = parse_s + check_s
    return {
        "points": len(configs),
        "parse_ms_per_point": round(parse_s / n * 1000, 4),
        "substitute_ms_per_point": round(substitute_s / n * 1000, 4),
        "check_ms_per_point": round(check_s / n * 1000, 4),
        "parse_fraction_of_frontend": round(parse_s / frontend, 4)
        if frontend else 0.0,
        "parse_over_substitute": round(parse_s / substitute_s, 2)
        if substitute_s else None,
    }


def _configs():
    return list(gemm_blocked_space().sample(SAMPLE))


def test_engine_throughput_vs_reference(benchmark):
    configs = _configs()

    def run():
        return sweep(configs, gemm_blocked_source, gemm_blocked_kernel)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.stats
    print_table(
        "DSE engine throughput (sampled Fig. 7 space)",
        ["metric", "value"],
        [
            ["points", stats.points],
            ["points/sec", f"{stats.points_per_sec:.1f}"],
            ["workers", stats.workers],
            ["checker runs", stats.checker_runs],
            ["memo hits", stats.memo_hits],
            ["parses", stats.parses],
        ])
    assert result.total == len(configs)
    assert stats.checker_runs + stats.memo_hits == len(configs)
    # Parse-free contract: at most one parse per structural variant.
    variants = {gemm_blocked_family.variant_of(config)
                for config in configs}
    assert stats.parses <= len(variants)


def test_parse_vs_check_split(benchmark):
    configs = _configs()[:200]

    split = benchmark.pedantic(
        lambda: measure_parse_check_split(
            configs, gemm_blocked_family, gemm_blocked_source),
        rounds=1, iterations=1)
    print_table(
        "Frontend cost split (per point, sampled Fig. 7 space)",
        ["metric", "value"],
        [
            ["points", split["points"]],
            ["parse ms/pt", split["parse_ms_per_point"]],
            ["substitute ms/pt", split["substitute_ms_per_point"]],
            ["check ms/pt", split["check_ms_per_point"]],
            ["parse share of frontend",
             f"{split['parse_fraction_of_frontend']:.0%}"],
            ["parse / substitute", split["parse_over_substitute"]],
        ])
    assert split["points"] == len(configs)
    assert split["parse_ms_per_point"] > 0
    assert split["substitute_ms_per_point"] > 0


def test_reference_explore_baseline(benchmark):
    configs = _configs()
    result = benchmark.pedantic(
        lambda: explore(configs, gemm_blocked_source,
                        gemm_blocked_kernel),
        rounds=1, iterations=1)
    assert result.total == len(configs)


def test_engine_matches_reference_on_bench_sample():
    configs = _configs()
    reference = explore(configs, gemm_blocked_source,
                        gemm_blocked_kernel)
    result = sweep(configs, gemm_blocked_source, gemm_blocked_kernel)
    assert [(p.accepted, p.rejection) for p in result.points] == \
        [(p.accepted, p.rejection) for p in reference.points]
    assert result._pareto_point_indices == \
        reference._pareto_point_indices
