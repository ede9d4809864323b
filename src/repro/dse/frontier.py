"""Frontier-guided adaptive DSE: Pareto queries without enumeration.

The paper's headline sweeps are exhaustive — 32,000 / 16,384 / 21,952
estimator runs per family even after acceptance memoization collapses
the *checker* work. This module answers the query those sweeps exist
for ("the accepted-Pareto frontier of this family") adaptively:

1. **Acceptance screen** — the exhaustive engine's own
   :func:`~repro.dse.engine.acceptance_pass` resolves every
   configuration's checker verdict at the unique-key cost (a few
   hundred runs for a 32,000-point space). Rejected configurations are
   discarded *before* any estimation: on the seed families this alone
   caps full evaluations at the 0.3–3.4% acceptance rate.

2. **Certified screening bounds** — every surviving candidate gets a
   :func:`~repro.hls.estimator.estimate_bounds` vector: a componentwise
   lower bound on its true objectives, computable without the banking
   analysis that dominates estimation cost.

3. **Batched proposal-and-evaluate** — candidates are ranked by
   non-dominated sorting of their bound vectors (bound-skyline tiers
   first — the successive-halving allocation: the most promising
   region of the space gets the evaluation budget first) and evaluated
   in engine-parallel batches. Each batch's true objectives are
   inserted into an :class:`IncrementalFrontier`; candidates whose
   *bounds* are strictly dominated by an evaluated frontier point are
   pruned unevaluated — sound because bound ≤ truth and dominance is
   transitive.

The exhaustive engine stays on as the parity oracle: a converged
frontier search returns the **byte-identical accepted-Pareto index
set** (``DseResult.accepted_pareto_indices``) for any batch size,
worker count, or budget large enough to converge. Ties are preserved —
a point equal to a frontier point is never pruned, because strict
dominance of its bound is impossible (see
:func:`~repro.dse.pareto.dominance_mask`).
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from ..hls.estimator import Report, estimate, estimate_bounds
from ..util import telemetry
from ..util.deadline import check_deadline
from .engine import (
    EngineStats,
    acceptance_pass,
    parallel_map,
    resolve_workers,
)
from .pareto import dominance_mask, pareto_indices
from .runner import DesignPoint, KernelBuilder, SourceBuilder
from .space import ParameterSpace


class IncrementalFrontier:
    """A Pareto skyline maintained under one-point insertions.

    Semantics match :func:`~repro.dse.pareto.pareto_indices` run on
    the inserted points in any order: a new point is discarded iff an
    existing frontier point strictly dominates it; otherwise it evicts
    every point it strictly dominates and joins the frontier. Equal
    points therefore coexist, exactly as in the batch skyline.

    ``version`` is a monotone counter bumped on every mutation (an
    insertion that changed the frontier); the streaming ``/dse`` mode
    keys its update lines on it. A rejected insertion leaves the
    version untouched.
    """

    def __init__(self) -> None:
        self._indices: list[int] = []
        self._matrix = np.empty((0, 0), dtype=float)
        self.version = 0

    def __len__(self) -> int:
        return len(self._indices)

    @property
    def matrix(self) -> np.ndarray:
        """(size, n_objectives) objective rows of the current frontier."""
        return self._matrix

    def indices(self) -> list[int]:
        """Enumeration indices of the frontier, ascending."""
        return sorted(self._indices)

    def entries(self) -> list[tuple[int, tuple[float, ...]]]:
        """(index, objectives) pairs, ascending by index."""
        order = np.argsort(self._indices, kind="stable")
        return [(self._indices[i], tuple(self._matrix[i]))
                for i in order]

    def insert(self, index: int, objectives: Iterable[float]) -> bool:
        """Offer one evaluated point; returns True if the frontier
        changed (and the version advanced)."""
        row = np.asarray(tuple(objectives), dtype=float)
        if not len(self._matrix):
            self._indices = [index]
            self._matrix = row[None, :]
            self.version += 1
            return True
        against = self._matrix
        dominated_by = (np.all(against <= row, axis=1)
                        & np.any(against < row, axis=1))
        if dominated_by.any():
            return False
        evicts = (np.all(row <= against, axis=1)
                  & np.any(row < against, axis=1))
        if evicts.any():
            keep = ~evicts
            self._indices = [i for i, k in zip(self._indices, keep) if k]
            self._matrix = self._matrix[keep]
        self._indices.append(index)
        self._matrix = np.concatenate([self._matrix, row[None, :]])
        self.version += 1
        return True


def _estimate_config(kernel_builder: KernelBuilder,
                     config: dict[str, int]) -> Report:
    """Module-level (picklable) full estimation of one configuration."""
    return estimate(kernel_builder(config))


def _bound_config(kernel_builder: KernelBuilder,
                  config: dict[str, int]) -> tuple[float, ...]:
    """Module-level (picklable) screening bound of one configuration."""
    return estimate_bounds(kernel_builder(config))


def _rank_by_bound_tiers(bounds: np.ndarray) -> list[int]:
    """Non-dominated sorting of bound vectors into proposal order.

    Tier 0 is the skyline of the bounds, tier 1 the skyline of the
    rest, and so on; within a tier, enumeration order. Evaluating
    tier 0 first front-loads the points most likely to land on (and
    therefore prune against) the true frontier.
    """
    remaining = list(range(len(bounds)))
    order: list[int] = []
    while remaining:
        tier = pareto_indices(bounds[remaining])
        picked = [remaining[i] for i in tier]
        order.extend(picked)
        chosen = set(picked)
        remaining = [i for i in remaining if i not in chosen]
    return order


def default_batch_size(workers: int) -> int:
    """Evaluation batch: enough rows to occupy the fleet several times
    over (amortizing pool startup) while keeping frontier updates
    frequent enough to stream."""
    return max(16, 4 * workers)


@dataclass
class FrontierResult:
    """Outcome of one frontier-guided search.

    ``frontier`` holds fully-evaluated :class:`DesignPoint`s in
    enumeration order; when ``converged`` their indices equal the
    exhaustive oracle's ``accepted_pareto_indices`` exactly. The
    ``trajectory`` records ``(evaluated, version, frontier_size)``
    after every batch — the points-evaluated-to-frontier curve that
    ``benchmarks/bench_dse_frontier.py`` reports.
    """

    space_size: int
    candidates: int                   # accepted configs entering search
    budget: int | None
    converged: bool
    frontier: list[DesignPoint] = field(default_factory=list)
    frontier_indices: list[int] = field(default_factory=list)
    trajectory: list[dict[str, int]] = field(default_factory=list)
    stats: EngineStats | None = None

    def accepted_pareto(self) -> list[DesignPoint]:
        """The frontier, named like the exhaustive result's accessor."""
        return list(self.frontier)


def frontier_sweep(space: ParameterSpace | Iterable[dict[str, int]],
                   source_builder: SourceBuilder,
                   kernel_builder: KernelBuilder,
                   *,
                   budget: int | None = None,
                   batch_size: int | None = None,
                   workers: int | None = None,
                   memoize: bool = True,
                   progress: Callable[[int], None] | None = None,
                   on_update: Callable[[dict[str, Any]], None] | None = None,
                   ) -> FrontierResult:
    """Adaptively compute the accepted-Pareto frontier of ``space``.

    ``budget`` caps *full evaluations* (checker verdicts are always
    resolved for the whole space — they are the cheap, memoized part);
    with no budget the search runs to convergence, which is exact.
    ``on_update`` is called with a JSON-ready dict every time the
    frontier version advances past a batch boundary; ``progress`` with
    the running evaluated-point count. Long-running rounds call
    :func:`~repro.util.deadline.check_deadline`, so a served request's
    budget interrupts the search at a batch boundary.
    """
    started = time.perf_counter()
    configs = list(space)
    n_workers = resolve_workers(workers)

    # Phase A — resolve every acceptance verdict at unique-key cost.
    counts: collections.Counter = collections.Counter()
    accepted_idx = [
        i for i, (accepted, _) in enumerate(acceptance_pass(
            configs, source_builder, workers=n_workers, memoize=memoize,
            counts=counts))
        if accepted]

    # Phase B — certified screening bounds for the survivors.
    if accepted_idx:
        bounds = np.asarray(
            parallel_map(partial(_bound_config, kernel_builder),
                         [configs[i] for i in accepted_idx],
                         workers=n_workers, counts=counts),
            dtype=float)
    else:
        bounds = np.empty((0, 5), dtype=float)

    # Phase C — ranked, pruned, batched proposal-and-evaluate.
    size = batch_size if batch_size and batch_size > 0 \
        else default_batch_size(n_workers)
    queue = _rank_by_bound_tiers(bounds)     # positions into accepted_idx
    pruned = np.zeros(len(accepted_idx), dtype=bool)
    frontier = IncrementalFrontier()
    evaluated: dict[int, Report] = {}        # enumeration index → report
    trajectory: list[dict[str, int]] = []
    proposed = 0
    emitted_version = 0
    cursor = 0

    def emit_update() -> None:
        nonlocal emitted_version
        if on_update is None or frontier.version == emitted_version:
            return
        emitted_version = frontier.version
        on_update({
            "version": frontier.version,
            "evaluated": len(evaluated),
            "frontier_size": len(frontier),
            "frontier": [
                {"config": configs[index], "objectives": list(row)}
                for index, row in frontier.entries()],
        })

    while cursor < len(queue):
        check_deadline()
        if budget is not None and len(evaluated) >= budget:
            break                    # unevaluated candidates remain
        room = (size if budget is None
                else min(size, budget - len(evaluated)))
        batch_positions = []
        while cursor < len(queue) and len(batch_positions) < room:
            position = queue[cursor]
            if pruned[position]:
                cursor += 1
                continue
            batch_positions.append(position)
            cursor += 1
        if not batch_positions:
            continue
        proposed += len(batch_positions)
        # Evaluate in enumeration order so insertion order — and with
        # it the version count — is deterministic for any ranking.
        batch_positions.sort(key=lambda p: accepted_idx[p])
        batch_indices = [accepted_idx[p] for p in batch_positions]
        with telemetry.span("dse.frontier.batch",
                            points=len(batch_indices)):
            reports = parallel_map(
                partial(_estimate_config, kernel_builder),
                [configs[i] for i in batch_indices],
                workers=n_workers, counts=counts)
        for index, report in zip(batch_indices, reports):
            evaluated[index] = report
            frontier.insert(index, report.objectives)
        # Prune every unevaluated candidate whose *bound* an evaluated
        # frontier point strictly dominates — its true objectives are
        # then strictly dominated too (bound ≤ truth, transitivity).
        live = [p for p in queue[cursor:] if not pruned[p]]
        if live and len(frontier):
            dominated = dominance_mask(frontier.matrix, bounds[live])
            for position, is_dominated in zip(live, dominated):
                if is_dominated:
                    pruned[position] = True
        trajectory.append({"evaluated": len(evaluated),
                           "version": frontier.version,
                           "frontier_size": len(frontier)})
        if progress is not None:
            progress(len(evaluated))
        emit_update()

    remaining = sum(1 for p in queue[cursor:] if not pruned[p])
    converged = remaining == 0
    elapsed = time.perf_counter() - started
    stats = EngineStats(
        points=len(configs), elapsed_s=elapsed, workers=n_workers,
        chunk_size=size, points_proposed=proposed,
        points_evaluated=len(evaluated),
        frontier_versions=frontier.version, **counts)
    frontier_points = [
        DesignPoint(config=configs[index], accepted=True, rejection=None,
                    report=evaluated[index])
        for index in frontier.indices()]
    return FrontierResult(
        space_size=len(configs), candidates=len(accepted_idx),
        budget=budget, converged=converged, frontier=frontier_points,
        frontier_indices=frontier.indices(), trajectory=trajectory,
        stats=stats)
