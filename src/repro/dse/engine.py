"""High-throughput DSE sweep engine.

The paper's headline experiments (§5.2–5.3) are exhaustive sweeps over
32,000 / 16,384 / 21,952-point spaces. :func:`repro.dse.explore` is the
sequential reference implementation; this module is the production
path. It produces **bit-identical results** (acceptance flags,
rejection kinds, estimator reports, point order) while being much
faster, via three mechanisms:

1. **Parallel fan-out** — one order-preserving process map,
   :func:`parallel_map`, runs every parallel step of a sweep: the
   acceptance pass's checker runs, then deterministic chunks of
   estimates, consumed in order so the output is independent of
   scheduling. A pool worker that raises or dies costs a redo of the
   items it left unanswered, inline in the caller.

2. **Acceptance memoization** — :func:`acceptance_pass`, shared by the
   exhaustive and frontier modes. The type checker is a deterministic
   function of the generated source, so identical sources need one
   checker run. Where the source builder exposes an
   ``acceptance_key(config)`` projection (see
   :mod:`repro.suite.generators`), configurations that agree on the
   acceptance-relevant parameters (unroll/banking divisibility) share a
   single checker run even though their sources differ in resource
   parameters — collapsing thousands of configurations to a few hundred
   typechecker invocations. Keys must determine the checker verdict;
   the test suite validates the shipped projections against the real
   checker.

   **Parse-free checking** — where the source builder additionally
   exposes a backing :class:`~repro.ir.TemplateFamily` (attribute
   ``family``), the checker runs that survive memoization consume
   *substituted ASTs*: the family template is parsed once per
   structural variant and each design point's program is produced by
   AST substitution. The ``parses`` stat records how few lex+parse
   invocations a sweep actually performed (= the variant count, not
   the point or key count).

3. **Structure-of-arrays results** — the returned
   :class:`~repro.dse.runner.DseResult` carries a cached objective
   matrix, so Pareto computation is a single vectorized numpy skyline.

Estimator reports are *never* memoized: resource estimates depend on
every parameter, and the paper's methodology estimates each point.
"""

from __future__ import annotations

import collections
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from ..hls.estimator import Report, estimate
from ..types.checker import FunctionVerdictStore
from ..util import telemetry
from ..util.faults import fault_point
from ..util.hashing import source_digest
from .runner import (
    DesignPoint,
    DseResult,
    KernelBuilder,
    SourceBuilder,
    check_acceptance,
    check_acceptance_program,
)
from .space import ParameterSpace

#: Attribute looked up on source builders for the memoization key.
ACCEPTANCE_KEY_ATTR = "acceptance_key"

#: Attribute looked up on source builders for a backing
#: :class:`~repro.ir.TemplateFamily`. When present, acceptance checks
#: substitute design points into the once-parsed family template and
#: check the AST directly — zero re-parses per design point.
FAMILY_ATTR = "family"

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: A checker verdict: (accepted, rejection kind).
Verdict = tuple[bool, "str | None"]


@dataclass(frozen=True)
class EngineStats:
    """Throughput accounting for one engine sweep."""

    points: int
    elapsed_s: float
    workers: int
    chunk_size: int
    checker_runs: int                 # actual typecheck invocations
    memo_hits: int                    # points served from the memo table
    parses: int = 0                   # lex+parse invocations (template
                                      # path: once per variant, not per
                                      # point; source path: one per run)
    fn_checked: int = 0               # per-function checker shards run
    fn_reused: int = 0                # shards replayed from the verdict
                                      # store (hole-free helpers shared
                                      # across a sweep's design points)
    requeued: int = 0                 # items redone inline after a pool
                                      # worker raised or died
    lost_workers: int = 0             # pools broken by a worker death
    points_proposed: int = 0          # frontier mode: candidates sent
                                      # to full evaluation batches
    points_evaluated: int = 0         # frontier mode: full estimates
                                      # actually run (≤ points)
    frontier_versions: int = 0        # frontier mode: skyline mutations

    @property
    def points_per_sec(self) -> float:
        return self.points / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "points": self.points,
            "elapsed_s": round(self.elapsed_s, 4),
            "points_per_sec": round(self.points_per_sec, 2),
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "checker_runs": self.checker_runs,
            "memo_hits": self.memo_hits,
            "parses": self.parses,
            "fn_checked": self.fn_checked,
            "fn_reused": self.fn_reused,
            "requeued": self.requeued,
            "lost_workers": self.lost_workers,
            "points_proposed": self.points_proposed,
            "points_evaluated": self.points_evaluated,
            "frontier_versions": self.frontier_versions,
        }


def resolve_workers(workers: int | None) -> int:
    """Worker count: explicit argument, else $REPRO_WORKERS, else #CPUs."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV, "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass                         # non-integer: fall through
    return os.cpu_count() or 1


def default_chunk_size(n_points: int, workers: int) -> int:
    """Deterministic chunk size: ~8 chunks per worker, clamped.

    Small enough for load balancing and progress granularity, large
    enough to amortize per-task IPC.
    """
    if n_points <= 0:
        return 1
    target = -(-n_points // max(1, workers * 8))
    return max(1, min(256, target))


#: Attribute caching a per-process function-verdict store on the
#: family object itself, so its lifetime is bounded by the family's
#: (a module-level registry would retain every sweep's verdicts for
#: the process lifetime, and id()-keying could alias recycled ids).
_FAMILY_STORE_ATTR = "_fn_verdict_store"


def _family_store(family: Any) -> FunctionVerdictStore:
    store = getattr(family, _FAMILY_STORE_ATTR, None)
    if store is None:
        store = FunctionVerdictStore()
        setattr(family, _FAMILY_STORE_ATTR, store)
    return store


def _check_config(source_builder: SourceBuilder,
                  config: dict[str, int],
                  ) -> tuple[Verdict, int, int, int]:
    """One checker run for ``config``: (verdict, parses, fn_checked,
    fn_reused).

    With a template family the design point's AST is produced by
    substitution into the once-parsed variant template — the parse
    count only grows when a new variant's template is first built —
    and the check is function-grained against the family's verdict
    store: substitution leaves hole-free helper ``def``s
    object-identical across points, so their per-function verdicts are
    checked once and replayed thereafter. Without a family, the
    generated source is parsed (one parse per run).
    """
    family = getattr(source_builder, FAMILY_ATTR, None)
    if family is None:
        return check_acceptance(source_builder(config)), 1, 0, 0
    store = _family_store(family)
    parses, checked, reused = (family.parse_count, store.checked,
                               store.reused)
    verdict = check_acceptance_program(family.instantiate(config),
                                       store=store)
    return (verdict, family.parse_count - parses,
            store.checked - checked, store.reused - reused)


def acceptance_pass(configs: Sequence[dict[str, int]],
                    source_builder: SourceBuilder,
                    *,
                    workers: int,
                    memoize: bool,
                    counts: collections.Counter) -> list[Verdict]:
    """Every configuration's checker verdict, at unique-key cost.

    The memo key is the builder's ``acceptance_key`` projection when
    available, else the content digest of the generated source
    (:func:`repro.util.hashing.source_digest`) — sound for any
    deterministic checker, but only collapsing exact duplicates; with
    ``memoize=False`` every configuration is its own key. One
    configuration per key is checked, fanned out by
    :func:`parallel_map` under a ``dse.prefill`` span. Every variant
    template those checks touch is built first, so pool workers
    inherit the warm cache at fork and the sweep-wide parse count stays
    at the touched-variant count for any worker count (a spawn fallback
    re-parses per worker, and the stat reports it honestly).

    Adds ``checker_runs``, ``memo_hits``, ``parses``, ``fn_checked``
    and ``fn_reused`` — and the fan-out's ``requeued`` and
    ``lost_workers`` — to ``counts``.
    """
    key_fn = getattr(source_builder, ACCEPTANCE_KEY_ATTR, None)
    if not memoize:
        keys: Iterable[Any] = range(len(configs))
    elif key_fn is not None:
        keys = map(key_fn, configs)
    else:
        keys = (source_digest(source_builder(config)) for config in configs)
    # Keep each configuration's slot (its key's index in ``reps``), not
    # its key: only the reps' keys are then held at once.
    slot_of: dict[Any, int] = {}
    reps: list[dict[str, int]] = []
    slots: list[int] = []
    for key, config in zip(keys, configs):
        slot = slot_of.setdefault(key, len(reps))
        if slot == len(reps):
            reps.append(config)
        slots.append(slot)
    family = getattr(source_builder, FAMILY_ATTR, None)
    if family is not None:
        before = family.parse_count
        for config in reps:
            family.template_for(config)
        counts["parses"] += family.parse_count - before
    with telemetry.span("dse.prefill", keys=len(reps)):
        outcomes = parallel_map(partial(_check_config, source_builder),
                                reps, workers=workers, counts=counts)
    for _, parses, checked, reused in outcomes:
        counts["parses"] += parses
        counts["fn_checked"] += checked
        counts["fn_reused"] += reused
    counts["checker_runs"] += len(reps)
    counts["memo_hits"] += len(configs) - len(reps)
    return [outcomes[slot][0] for slot in slots]


def _estimate_chunk(kernel_builder: KernelBuilder,
                    chunk: tuple[int, Sequence[dict[str, int]]],
                    ) -> list[Report]:
    """Estimate one chunk of configurations in order (a ``dse.chunk``
    span)."""
    index, configs = chunk
    with telemetry.span("dse.chunk", chunk=index, points=len(configs)):
        return [estimate(kernel_builder(config)) for config in configs]


def sweep(space: ParameterSpace | Iterable[dict[str, int]],
          source_builder: SourceBuilder,
          kernel_builder: KernelBuilder,
          *,
          workers: int | None = None,
          chunk_size: int | None = None,
          memoize: bool = True,
          progress: Callable[[int], None] | None = None,
          mode: str = "exhaustive",
          budget: int | None = None,
          batch_size: int | None = None,
          on_frontier_update: Callable[[dict[str, Any]], None] | None = None,
          ):
    """Run a sweep through the high-throughput engine (traced).

    ``mode="exhaustive"`` (the default) evaluates every point and
    returns a :class:`~repro.dse.runner.DseResult`: a drop-in
    replacement for :func:`repro.dse.explore` with identical results —
    point order follows the space's enumeration order, and every point
    carries the same acceptance flag, rejection kind, and estimator
    report the sequential reference produces. The sweep is the
    :func:`acceptance_pass` followed by order-preserving ``dse.chunk``
    estimate chunks through :func:`parallel_map`; one chunk (or one
    worker) runs inline. ``progress`` is called with the running
    completed-point count, from 0 and after each chunk (monotonic,
    and guaranteed to observe the final total). The result's ``stats``
    field carries an :class:`EngineStats`; ``requeued`` and
    ``lost_workers`` report items a raising or dying pool worker left
    to the caller, which change no result.

    ``mode="frontier"`` runs the adaptive frontier-guided search
    (:func:`repro.dse.frontier.frontier_sweep`) and returns a
    :class:`~repro.dse.frontier.FrontierResult` whose ``stats`` extend
    :class:`EngineStats` with
    ``points_proposed``/``points_evaluated``/``frontier_versions``;
    ``budget`` caps full evaluations and ``on_frontier_update``
    observes every frontier version advance. ``budget``, ``batch_size``
    and ``on_frontier_update`` are frontier-only and rejected in
    exhaustive mode.

    When a trace is active the exhaustive sweep is a ``dse.sweep``
    span carrying the final engine stats, with per-chunk ``dse.chunk``
    child spans stitched in from the pool workers; untraced, the span
    layer is a no-op.
    """
    if mode == "frontier":
        from .frontier import frontier_sweep

        return frontier_sweep(space, source_builder, kernel_builder,
                              budget=budget, batch_size=batch_size,
                              workers=workers, memoize=memoize,
                              progress=progress,
                              on_update=on_frontier_update)
    if mode != "exhaustive":
        raise ValueError(f"unknown sweep mode {mode!r} "
                         f"(choose from: exhaustive, frontier)")
    if budget is not None or batch_size is not None \
            or on_frontier_update is not None:
        raise ValueError("budget/batch_size/on_frontier_update require "
                         "mode='frontier'")
    configs = list(space)
    n_workers = resolve_workers(workers)
    size = (chunk_size if chunk_size and chunk_size > 0
            else default_chunk_size(len(configs), n_workers))
    chunks = [configs[i:i + size] for i in range(0, len(configs), size)]
    used_workers = max(1, min(n_workers, len(chunks)))
    counts: collections.Counter = collections.Counter()

    def chunks_done(done: int) -> None:
        if progress is not None:
            progress(min(done * size, len(configs)))

    started = time.perf_counter()
    with telemetry.span("dse.sweep") as sweep_span:
        verdicts = acceptance_pass(configs, source_builder,
                                   workers=used_workers, memoize=memoize,
                                   counts=counts)
        chunks_done(0)
        estimated = parallel_map(
            partial(_estimate_chunk, kernel_builder), enumerate(chunks),
            workers=used_workers, chunk_size=1, counts=counts,
            progress=chunks_done)
        stats = EngineStats(
            points=len(configs), elapsed_s=time.perf_counter() - started,
            workers=used_workers, chunk_size=size, **counts)
        for attr in ("points", "workers", "chunk_size", "checker_runs",
                     "memo_hits", "parses", "requeued", "lost_workers"):
            sweep_span.set_attr(attr, getattr(stats, attr))
    reports = [report for chunk in estimated for report in chunk]
    return DseResult(points=[
        DesignPoint(config=config, accepted=accepted, rejection=rejection,
                    report=report)
        for config, (accepted, rejection), report
        in zip(configs, verdicts, reports)], stats=stats)


# ---------------------------------------------------------------------------
# The one process fan-out: an ordered parallel map.
# ---------------------------------------------------------------------------

def _pool_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:                               # pragma: no cover
        return multiprocessing.get_context()


#: Pool-worker state, set by the pool initializer: the mapped function
#: and the caller's inherited trace context.
_map_state: dict[str, Any] = {}


def _init_map_worker(function: Callable[[Any], Any]) -> None:
    _map_state["function"] = function
    _map_state["context"] = telemetry.env_context()


def _run_map_batch(items: Sequence[Any],
                   ) -> tuple[list[tuple[bool, Any]], list[dict]]:
    """Pool-worker side of :func:`parallel_map`: each item's answer,
    ``(True, result)`` or ``(False, error text)``, and the batch's span
    records.

    The ``dse.worker`` fault point fires before each item, so a plan
    can model a worker that errors or dies mid-map. Spans open under
    the caller's trace context — inherited as ``$REPRO_TRACE_CONTEXT``
    over both ``fork`` and ``spawn`` — and ride home with the answers;
    a killed worker's spans die with it.
    """
    answers: list[tuple[bool, Any]] = []
    with telemetry.adopted(_map_state["context"]) as collect:
        for item in items:
            try:
                fault_point("dse.worker")
                answers.append((True, _map_state["function"](item)))
            except Exception as exc:          # noqa: BLE001 — redone
                answers.append((False, f"{type(exc).__name__}: {exc}"))
    return answers, collect()


def parallel_map(function: Callable[[Any], Any],
                 items: Iterable[Any],
                 *,
                 workers: int | None = None,
                 chunk_size: int | None = None,
                 counts: collections.Counter | None = None,
                 progress: Callable[[int], None] | None = None,
                 ) -> list[Any]:
    """Order-preserving parallel map over picklable items.

    Runs inline for a single worker (or a single item), so results are
    identical regardless of the worker count; otherwise a process pool
    answers batches of ``chunk_size`` items. The mapped functions are
    pure, so when a pool worker raises or dies the items it left
    unanswered are redone inline in the caller: each redone item is a
    ``dse.requeue`` span event (``reason`` ``worker-error`` or
    ``lost-worker``), a broken pool adds one ``dse.lost_worker`` event,
    and ``counts`` tallies them as ``requeued`` and ``lost_workers``.
    An item that raises inline too propagates its error. ``progress``
    is called with the running count of answered items.
    """
    materialized = list(items)
    n_workers = resolve_workers(workers)
    counts = collections.Counter() if counts is None else counts
    results: list[Any] = []

    def answer(value: Any) -> None:
        results.append(value)
        if progress is not None:
            progress(len(results))

    def redo(item: Any, reason: str, detail: str | None = None) -> None:
        telemetry.add_event("dse.requeue", item=len(results),
                            reason=reason, detail=detail)
        counts["requeued"] += 1
        answer(function(item))

    if n_workers <= 1 or len(materialized) <= 1:
        for item in materialized:
            answer(function(item))
        return results
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    size = (chunk_size if chunk_size and chunk_size > 0
            else default_chunk_size(len(materialized), n_workers))
    batches = [materialized[i:i + size]
               for i in range(0, len(materialized), size)]
    # Workers fork inside this scope, so they inherit the current span
    # as their trace parent.
    with telemetry.propagate_env(), ProcessPoolExecutor(
            max_workers=min(n_workers, len(batches)),
            mp_context=_pool_context(),
            initializer=_init_map_worker,
            initargs=(function,)) as pool:
        try:
            for batch, (answers, spans) in zip(
                    batches, pool.map(_run_map_batch, batches)):
                telemetry.attach_spans(spans)
                for item, (ok, value) in zip(batch, answers):
                    if ok:
                        answer(value)
                    else:
                        redo(item, "worker-error", value)
        except BrokenProcessPool:
            telemetry.add_event("dse.lost_worker",
                                redone=len(materialized) - len(results))
            counts["lost_workers"] += 1
            for item in materialized[len(results):]:
                redo(item, "lost-worker")
    return results
