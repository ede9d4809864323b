"""``dse``: in-process sweeps over all four DSE families, one worker.

A round is, per family, one exhaustive ``sweep`` over a seeded sample
(timed with its accepted-Pareto query, as ``/dse`` summaries use it)
and one ``mode="frontier"`` query to convergence over a larger seeded
sample (the full space when that is smaller). Timed rounds repeat the
same inputs after one warm-up round; a round keeps only digests of its
results, so memory does not grow with the number of rounds.

Every timed round repeats identical work, so each family's sweep and
query take their best time over the rounds (as ``timeit`` does): on a
host that shares its cores, speed can switch every few seconds.
End-to-end metrics: ``throughput_per_s`` is exhaustive sweep points per
second at those best times. Frontier query times form one mode per
family, so ``latency_ms_p50`` is the geometric mean of the families'
best query times and ``latency_ms_p99`` the slowest family's.

Oracles (computed after timing, from other code paths):

* exhaustive: the sequential ``explore()`` on the same configurations
  gives the accepted set and rejection histogram; the accepted-Pareto
  indices come from a plain pairwise skyline over its objectives.
* frontier: each distinct acceptance key is decided once by the
  parse-and-check reference (``check_acceptance`` on the rendered
  source); accepted points are estimated and reduced by the same plain
  skyline. Every query must report ``converged`` and return that set.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any

from . import layers
from .common import LayerTracer, Outcome, cpus, peak_rss_mb, pin

#: Exhaustive-sweep sample per family.
EXHAUSTIVE_SAMPLE = 400
#: Frontier-query sample per family (the full space when smaller).
FRONTIER_SAMPLE = 6000


def _families():
    from repro.suite import generators

    return {name: generators.resolve_family(name)
            for name in sorted(generators.DSE_FAMILIES)}


def stratified(rng: random.Random, size: int, count: int) -> list[int]:
    """One seeded position in each of ``count`` equal slices of
    ``range(size)`` (all of it when ``count >= size``).

    Every seed then covers the enumeration order evenly, so the mix of
    cheap and costly configurations, and the run time, barely move
    between seeds.
    """
    if count >= size:
        return list(range(size))
    edges = [k * size // count for k in range(count + 1)]
    return [low + rng.randrange(high - low)
            for low, high in zip(edges, edges[1:])]


def make_inputs(seed: int) -> dict[str, Any]:
    """Per family: (source function, kernel function, exhaustive
    configs, frontier configs), drawn from ``seed``."""
    inputs = {}
    for name, (space_fn, source_fn, kernel_fn) in _families().items():
        space = list(space_fn())
        rng = random.Random(f"{seed}:{name}")
        pick = stratified(rng, len(space), EXHAUSTIVE_SAMPLE)
        wide = stratified(rng, len(space), FRONTIER_SAMPLE)
        inputs[name] = (source_fn, kernel_fn, [space[i] for i in pick],
                        [space[i] for i in wide])
    return inputs


def setup(seed: int) -> dict[str, Any]:
    """Imports and template build: every structural variant the inputs
    touch is parsed once, as a long-running sweep process would."""
    import repro.dse  # noqa: F401  (the engine under test)

    inputs = make_inputs(seed)
    for source_fn, _, configs, wide in inputs.values():
        for config in (*configs, *wide):
            source_fn.family.template_for(config)
    return inputs


def _round(inputs: dict[str, Any]) -> dict[str, Any]:
    """One round: per family, step timings, result digests and stats."""
    from repro.dse import sweep

    exhaustive, frontier, sweep_s, query_s = {}, {}, [], []
    swept, queried = [], []
    for name, (source_fn, kernel_fn, configs, _) in inputs.items():
        started = time.perf_counter()
        result = sweep(configs, source_fn, kernel_fn, workers=1)
        pareto = result.accepted_pareto_indices
        sweep_s.append(time.perf_counter() - started)
        exhaustive[name] = _exhaustive_digest(result, pareto)
        swept.append(result.stats)
    for name, (source_fn, kernel_fn, _, wide) in inputs.items():
        started = time.perf_counter()
        result = sweep(wide, source_fn, kernel_fn, workers=1,
                       mode="frontier")
        query_s.append(time.perf_counter() - started)
        frontier[name] = (result.converged, result.frontier_indices)
        queried.append(result.stats)
    return {"exhaustive": exhaustive, "frontier": frontier,
            "sweep_s": sweep_s, "query_s": query_s,
            "swept": swept, "queried": queried}


def _best(rounds: list[dict[str, Any]], key: str) -> list[float]:
    """Per family, the best time over ``rounds`` of the ``key`` step."""
    return [min(times) for times in zip(*(r[key] for r in rounds))]


def _skyline(rows: list[tuple[int, tuple[float, ...]]]) -> list[int]:
    """Indices whose objectives no other row strictly dominates."""
    keep = []
    for index, mine in rows:
        if not any(all(o <= m for o, m in zip(other, mine))
                   and any(o < m for o, m in zip(other, mine))
                   for _, other in rows):
            keep.append(index)
    return sorted(keep)


def _exhaustive_digest(result, pareto: list[int]) -> tuple:
    accepted = [i for i, p in enumerate(result.points) if p.accepted]
    return (tuple(accepted), tuple(sorted(result.rejection_counts().items())),
            tuple(pareto))


def _oracles(inputs: dict[str, Any]) -> dict[str, Any]:
    from repro.dse import explore
    from repro.dse.runner import check_acceptance
    from repro.hls.estimator import estimate

    oracle = {}
    for name, (source_fn, kernel_fn, configs, wide) in inputs.items():
        reference = explore(configs, source_fn, kernel_fn)
        accepted = [i for i, p in enumerate(reference.points) if p.accepted]
        histogram: dict[str, int] = {}
        for point in reference.points:
            if point.rejection:
                histogram[point.rejection] = histogram.get(point.rejection,
                                                           0) + 1
        pareto = _skyline([(i, reference.points[i].objectives)
                           for i in accepted])
        verdicts: dict[Any, bool] = {}
        survivors = []
        for index, config in enumerate(wide):
            key = source_fn.acceptance_key(config)
            if key not in verdicts:
                verdicts[key] = check_acceptance(source_fn(config))[0]
            if verdicts[key]:
                survivors.append(
                    (index, estimate(kernel_fn(config)).objectives))
        oracle[name] = {
            "exhaustive": (tuple(accepted), tuple(sorted(histogram.items())),
                           tuple(pareto)),
            "frontier": (True, _skyline(survivors)),
        }
    return oracle


def _check_round(outcome: Outcome, result: dict[str, Any],
                 oracle: dict[str, Any]) -> None:
    for name, digest in result["exhaustive"].items():
        outcome.check(digest == oracle[name]["exhaustive"],
                      f"{name}: exhaustive sweep differs from explore()")
    for name, query in result["frontier"].items():
        outcome.check(query == oracle[name]["frontier"],
                      f"{name}: frontier query not converged to the "
                      f"exhaustive accepted-Pareto set")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    pin(cpus()[-1])
    inputs = setup(seed)
    outcome = Outcome()
    rounds = [_round(inputs)]                        # warm-up, checked too
    if trace:
        values = _traced(inputs, seconds, rounds)
    else:
        deadline = time.perf_counter() + seconds
        timed = []
        while not timed or time.perf_counter() < deadline:
            timed.append(_round(inputs))
        rss = peak_rss_mb()
        rounds.extend(timed)
        points = sum(len(configs) for _, _, configs, _ in inputs.values())
        queries_ms = [s * 1000.0 for s in _best(timed, "query_s")]
        outcome.put("throughput_per_s",
                    points / sum(_best(timed, "sweep_s")), "1/s")
        outcome.put("latency_ms_p50", statistics.geometric_mean(queries_ms),
                    "ms")
        outcome.put("latency_ms_p99", max(queries_ms), "ms")
        outcome.put("peak_rss_mb", rss, "MB")
        outcome.report["rounds"] = len(timed)
    oracle = _oracles(inputs)
    for result in rounds:
        _check_round(outcome, result, oracle)
    if trace:
        layers.put(outcome, values)
    outcome.report["samples"] = {
        name: [len(configs), len(wide)]
        for name, (_, _, configs, wide) in inputs.items()}
    return outcome


def _traced(inputs: dict[str, Any], seconds: float,
            rounds: list[dict[str, Any]]) -> dict[str, float]:
    """Alternate untraced and traced rounds; layer numbers per round."""
    tracer = LayerTracer()
    untraced_s, traced_s, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        started = time.perf_counter()
        rounds.append(_round(inputs))
        untraced_s.append(time.perf_counter() - started)
        layers.install(tracer)
        try:
            started = time.perf_counter()
            result = _round(inputs)
            traced_s.append(time.perf_counter() - started)
        finally:
            tracer.restore()
        rounds.append(result)
        traced.append(result)
    ops = len(traced)
    values = layers.zeros()
    values.update(layers.tracer_metrics(tracer, ops))
    swept = [s for r in traced for s in r["swept"]]
    queried = [s for r in traced for s in r["queried"]]
    stats = swept + queried
    layers.reuse(values, sum(s.fn_checked for s in stats),
                 sum(s.fn_reused for s in stats), ops)
    values["dse.checker_runs"] = sum(s.checker_runs for s in stats) / ops
    values["dse.memo_hit_ratio"] = (sum(s.memo_hits for s in swept)
                                    / sum(s.points for s in swept))
    values["dse.points_evaluated_ratio"] = (
        sum(s.points_evaluated for s in queried)
        / sum(s.points for s in queried))
    op_s = sum(traced_s) / ops
    return layers.finish(values, op_s=op_s,
                         attributed_s=tracer.total_self_s() / ops,
                         untraced_op_s=sum(untraced_s) / len(untraced_s))
