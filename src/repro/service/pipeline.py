"""Incremental compilation pipeline over the artifact store.

The Figure-1 flow — frontend → type checker → {HLS estimate, C++
emission, RTL, interpreter} — is expressed as declarative
:class:`Stage` records: a name, the stages it depends on, the option
keys it consumes, and a pure run function. Stage results are memoized
in a content-addressed :class:`~repro.service.artifacts.ArtifactStore`.

The ``resolve`` stage turns source text into a
:class:`~repro.ir.ResolvedProgram` — parse + symbol tables + a
**structural digest** computed once. Keys split into two regimes:

* ``resolve``/``parse`` and the ``*_payload`` stages are keyed on the
  **source text** (payload diagnostics embed spans and caret snippets,
  which depend on the exact text);
* every other raw stage (``check``, ``desugar``, ``kernel``,
  ``estimate``, ``compile``, ``rtl``, ``interp``) is keyed on the
  **structural digest**, so sources differing only in whitespace or
  comments share those artifacts — reformatting a program cannot
  evict its checker verdict or its emitted C++;
* below the stage artifacts sit **function-grained sub-artifacts**:
  the ``check`` stage shards its verdict per definition
  (:class:`ArtifactFunctionVerdictStore`, keyed on closure digests)
  and ``compile`` stitches per-definition C++ units
  (:class:`ArtifactEmissionUnitStore`), both riding the same two
  cache tiers — so editing one function re-checks and re-emits *that
  function*, not the program, and a warm edit costs parse + one
  function instead of parse + everything.

Option invalidation is unchanged:

* a changed source re-runs ``resolve``; downstream stages re-run only
  if the program *structure* changed;
* a changed option re-runs only the stages that (transitively) read
  it: flipping ``kernel_name`` re-emits C++ without re-parsing or
  re-checking, because ``parse`` and ``check`` read no options and
  their keys are unchanged.

``*_payload`` stages are the servable results: total functions that
fold a :class:`~repro.errors.DahliaError` into ``{"ok": false,
"diagnostic": …}`` (so rejections are cached too) and whose JSON is
byte-identical between the CLI, the library, and the HTTP server —
the parity the test-suite enforces.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from pathlib import Path

from ..backend.hls_cpp import EmissionUnitStore
from ..errors import DahliaError
from ..source import SourceFile
from ..types.checker import FunctionVerdictStore
from ..util import telemetry
from ..util.deadline import check_deadline
from ..util.diagnostics import diagnostic_payload
from ..util.faults import fault_point
from ..util.singleflight import SingleFlight
from .artifacts import (
    DEFAULT_DISK_BYTES,
    ArtifactKey,
    ArtifactStore,
    DiskStore,
    RemoteStore,
    artifact_key,
)

#: Signature of a stage body: (pipeline, source, options) → artifact.
StageFn = Callable[["CompilerPipeline", str, dict], Any]


@dataclass(frozen=True)
class Stage:
    """One declarative pipeline stage."""

    name: str
    deps: tuple[str, ...]
    options: tuple[str, ...]          # option keys this stage reads
    run: StageFn


#: The stage registry, in dependency order (a stage's deps precede it).
STAGES: dict[str, Stage] = {}


def _stage(name: str, deps: tuple[str, ...] = (),
           options: tuple[str, ...] = ()) -> Callable[[StageFn], StageFn]:
    def register(run: StageFn) -> StageFn:
        for dep in deps:
            if dep not in STAGES:
                raise ValueError(f"stage {name!r}: unknown dep {dep!r}")
        STAGES[name] = Stage(name=name, deps=deps, options=options, run=run)
        return run
    return register


def relevant_options(stage: str) -> tuple[str, ...]:
    """Option keys that can affect ``stage``'s result (transitive)."""
    spec = STAGES[stage]
    keys = set(spec.options)
    for dep in spec.deps:
        keys.update(relevant_options(dep))
    return tuple(sorted(keys))


# ---------------------------------------------------------------------------
# Function-grained sub-artifact stores (both cache tiers)
# ---------------------------------------------------------------------------

class _ArtifactBacked:
    """Mixin routing a sub-artifact store through :class:`ArtifactStore`.

    Sub-artifacts stored this way are LRU-bounded in memory, persistent
    on disk when a tier is attached, and shared across every process
    pointed at the same directory — exactly like whole-stage artifacts.
    """

    STAGE: str

    def __init__(self, store: ArtifactStore) -> None:
        super().__init__()
        self._store = store

    def load(self, key: str):
        return self._store.get(ArtifactKey(self.STAGE, key))

    def save(self, key: str, value) -> None:
        self._store.put(ArtifactKey(self.STAGE, key), value)


class ArtifactFunctionVerdictStore(_ArtifactBacked, FunctionVerdictStore):
    """Per-function checker verdicts (closure+environment keyed)
    backed by the two-tier store."""

    STAGE = "check_fn"


class ArtifactEmissionUnitStore(_ArtifactBacked, EmissionUnitStore):
    """Per-function C++ emission units backed by the two-tier store."""

    STAGE = "compile_fn"


class CompilerPipeline:
    """A compilation pipeline bound to one artifact store.

    ``disk`` attaches a persistent artifact tier: pass a directory (or
    a ready :class:`DiskStore`) and stage results are also written to
    — and, after a restart, served from — that directory. Processes
    sharing the directory share the warm cache; soundness follows from
    the content-addressed keys (stage + source + relevant options).
    """

    #: Bound on the pipeline-level interned ResolvedProgram cache.
    RESOLVED_CACHE_CAPACITY = 64

    def __init__(self, store: ArtifactStore | None = None,
                 capacity: int = 512,
                 disk: DiskStore | str | Path | None = None,
                 disk_bytes: int = DEFAULT_DISK_BYTES,
                 peers: list[str] | tuple[str, ...] | None = None) -> None:
        if store is not None:
            self.store = store
        else:
            tier = (disk if isinstance(disk, DiskStore) or disk is None
                    else DiskStore(disk, max_bytes=disk_bytes))
            remote = RemoteStore(peers) if peers else None
            self.store = ArtifactStore(capacity, disk=tier, remote=remote)
        # Per-key in-flight dedup: a thundering herd of identical cold
        # requests elects one leader per stage key; followers block on
        # the leader's artifact instead of recomputing it.
        self._flights = SingleFlight()
        # Function-grained sub-artifacts ride through the same two-tier
        # store as whole-stage artifacts (memory LRU + optional disk).
        self.functions = ArtifactFunctionVerdictStore(self.store)
        self.units = ArtifactEmissionUnitStore(self.store)
        # Structurally-equal sources (same digest, different text) are
        # interned onto one ResolvedProgram instance, so its memoized
        # checker verdict and tables are shared across request texts.
        self._resolved_by_digest: "OrderedDict[str, Any]" = OrderedDict()
        self._resolved_lock = threading.Lock()
        self.resolved_reused = 0

    def intern_resolved(self, resolved: Any) -> Any:
        """Deduplicate a ResolvedProgram by structural digest.

        A reformatted variant of an already-served structure is
        answered with the cached instance — but **only** when that
        instance's memoized verdict is a span-free success report.
        Rejections embed the first text's spans, and payload
        diagnostics must render caret snippets against the *current*
        request's text, so unchecked and rejected instances are never
        shared across texts (each text re-checks; the per-function
        verdict store still replays its accepted definitions).
        Bounded LRU so a pathological stream of distinct structures
        cannot grow it without bound.
        """
        digest = resolved.structural_digest
        with self._resolved_lock:
            cached = self._resolved_by_digest.get(digest)
            if cached is not None and cached.checked_ok:
                self._resolved_by_digest.move_to_end(digest)
                self.resolved_reused += 1
                return cached
            self._resolved_by_digest[digest] = resolved
            self._resolved_by_digest.move_to_end(digest)
            while len(self._resolved_by_digest) > \
                    self.RESOLVED_CACHE_CAPACITY:
                self._resolved_by_digest.popitem(last=False)
        return resolved

    def key(self, stage: str, source: str,
            options: Mapping[str, Any] | None = None) -> ArtifactKey:
        """Content-addressed key for a stage result.

        Only the options the stage transitively consumes enter the
        fingerprint — the dependency-aware invalidation contract.
        Structure-keyed stages (everything except ``resolve``/``parse``
        and the ``*_payload`` formatters) fingerprint the resolved
        program's structural digest instead of the source bytes, so
        whitespace- or comment-differing sources share cache entries.
        May therefore raise a :class:`~repro.errors.DahliaError` for
        unparsable sources when ``stage`` is structure-keyed.
        """
        options = options or {}
        relevant = {k: options[k] for k in relevant_options(stage)
                    if k in options}
        if _source_keyed(stage):
            return artifact_key(stage, source, relevant)
        digest = self.resolve(source, options).structural_digest
        return artifact_key(stage, "ast:" + digest, relevant)

    def resolve(self, source: str,
                options: Mapping[str, Any] | None = None):
        """The source's :class:`~repro.ir.ResolvedProgram` (cached)."""
        return self.run("resolve", source, options)

    def run(self, stage: str, source: str,
            options: Mapping[str, Any] | None = None) -> Any:
        """Produce a stage artifact, serving it from cache when possible.

        When a trace is active, each stage gets a span whose ``cache``
        attribute records which tier answered (``memory`` / ``disk`` /
        ``miss``); computed ``check`` and ``compile`` stages also
        attach how many function-grained sub-artifacts were reused
        versus redone. With tracing off this adds one thread-local
        read per stage.
        """
        spec = STAGES.get(stage)
        if spec is None:
            raise ValueError(f"unknown pipeline stage {stage!r}")
        opts = dict(options or {})
        with telemetry.span("stage:" + stage) as stage_span:
            # Stage boundaries are the pipeline's cooperative
            # cancellation points: a request whose server-side budget
            # ran out raises here instead of starting (or continuing
            # into) more work. The fault site runs first so injected
            # stage latency is subject to the same deadline an
            # organically slow stage would be.
            fault_point("pipeline.stage")
            check_deadline()
            key = self.key(stage, source, opts)
            value, tier = self.store.lookup(key)
            if tier is not None:
                stage_span.set_attr("cache", tier)
                return value
            stage_span.set_attr("cache", "miss")

            def compute() -> Any:
                before = self._unit_counters(stage)
                # The compute runs outside the store lock; only the
                # singleflight leader for this key reaches here.
                result = spec.run(self, source, opts)
                self._attr_unit_deltas(stage_span, stage, before)
                self.store.put(key, result)
                return result

            # Concurrent identical misses coalesce: one leader runs
            # ``compute``, followers block on its artifact. Waits only
            # ever point from a stage to its (transitive) deps, so the
            # wait graph inherits the stage DAG's acyclicity.
            value, coalesced = self._flights.do(key, compute)
            if coalesced:
                self.store.count_coalesced(stage)
                stage_span.set_attr("cache", "coalesced")
            return value

    def _unit_counters(self, stage: str) -> tuple[int, int] | None:
        """Function-grained (done, reused) counters feeding ``stage``."""
        if stage == "check":
            return self.functions.checked, self.functions.reused
        if stage == "compile":
            return self.units.emitted, self.units.reused
        return None

    def _attr_unit_deltas(self, stage_span: Any, stage: str,
                          before: tuple[int, int] | None) -> None:
        after = self._unit_counters(stage)
        if before is None or after is None:
            return
        done, reused = after[0] - before[0], after[1] - before[1]
        if stage == "check":
            stage_span.set_attr("fn_checked", done)
            stage_span.set_attr("fn_reused", reused)
        else:
            stage_span.set_attr("units_emitted", done)
            stage_span.set_attr("units_reused", reused)

    def stats(self) -> dict:
        """Store statistics plus the function-grained counters.

        ``functions`` reports checker runs avoided by per-function
        verdict reuse, ``compile_units`` the emission units stitched
        from cache, and ``resolved_cache`` the structurally-interned
        ResolvedProgram instances — all surfaced by ``/metrics``.
        """
        stats = self.store.stats()
        stats["functions"] = self.functions.stats()
        stats["compile_units"] = self.units.stats()
        stats["singleflight"] = self._flights.stats()
        with self._resolved_lock:
            stats["resolved_cache"] = {
                "entries": len(self._resolved_by_digest),
                "reused": self.resolved_reused,
            }
        return stats


def _source_keyed(stage: str) -> bool:
    """Is this stage's artifact a function of the source *text* (not
    just the program structure)? Payload stages embed diagnostics with
    spans and snippets; resolve/parse carry the spans themselves."""
    return stage in ("resolve", "parse") or stage.endswith("_payload")


# ---------------------------------------------------------------------------
# Raw stages (library objects; raise DahliaError on rejection).
# ---------------------------------------------------------------------------

@_stage("resolve")
def _resolve(pipeline: CompilerPipeline, source: str, opts: dict) -> Any:
    from ..ir import resolve_source

    return pipeline.intern_resolved(resolve_source(source))


@_stage("parse", deps=("resolve",))
def _parse(pipeline: CompilerPipeline, source: str, opts: dict) -> Any:
    return pipeline.run("resolve", source, opts).ast


@_stage("check", deps=("parse",))
def _check(pipeline: CompilerPipeline, source: str, opts: dict) -> Any:
    from ..types.checker import check_resolved

    # Function-grained: definitions whose closure digest already has a
    # stored verdict are replayed, not re-checked (sub-digest reuse).
    return check_resolved(pipeline.run("resolve", source, opts),
                          store=pipeline.functions)


@_stage("desugar", deps=("parse", "check"))
def _desugar(pipeline: CompilerPipeline, source: str, opts: dict) -> str:
    from ..filament.desugar import desugar
    from ..filament.pretty import pretty_filament

    program = pipeline.run("parse", source, opts)
    pipeline.run("check", source, opts)
    return pretty_filament(desugar(program))


@_stage("kernel", deps=("parse", "check"))
def _kernel(pipeline: CompilerPipeline, source: str, opts: dict) -> Any:
    from ..hls.extract import extract_kernel

    program = pipeline.run("parse", source, opts)
    pipeline.run("check", source, opts)
    return extract_kernel(program)


@_stage("estimate", deps=("kernel",))
def _estimate(pipeline: CompilerPipeline, source: str, opts: dict) -> Any:
    from ..hls.estimator import estimate

    return estimate(pipeline.run("kernel", source, opts))


@_stage("compile", deps=("parse", "check"),
        options=("erase", "kernel_name"))
def _compile(pipeline: CompilerPipeline, source: str, opts: dict) -> str:
    from ..backend.hls_cpp import EmitterOptions, compile_program_units

    program = pipeline.run("parse", source, opts)
    pipeline.run("check", source, opts)
    # Function-grained: unchanged definitions (and the kernel shell,
    # when decls/body/options are unchanged) stitch their cached C++
    # units; only edited functions re-emit.
    return compile_program_units(program, EmitterOptions(
        erase=bool(opts.get("erase", False)),
        kernel_name=str(opts.get("kernel_name", "kernel"))),
        unit_store=pipeline.units)


@_stage("rtl", deps=("parse", "check"), options=("module_name",))
def _rtl(pipeline: CompilerPipeline, source: str, opts: dict) -> str:
    from ..rtl import emit_verilog, lower_program

    program = pipeline.run("parse", source, opts)
    pipeline.run("check", source, opts)
    return emit_verilog(lower_program(
        program, name=str(opts.get("module_name", "main")), check=False))


@_stage("interp", deps=("parse", "check"), options=("check",))
def _interp(pipeline: CompilerPipeline, source: str, opts: dict) -> Any:
    from ..interp.interpreter import interpret_program

    program = pipeline.run("parse", source, opts)
    if bool(opts.get("check", True)):
        # Reuse the cached checker artifact instead of letting
        # interpret_program re-run the checker internally.
        pipeline.run("check", source, opts)
    return interpret_program(program, check=False)


# ---------------------------------------------------------------------------
# Payload formatters (shared by the CLI and the payload stages so the
# served bytes are identical to a direct library call by construction).
# ---------------------------------------------------------------------------

def check_report_fields(report: Any) -> dict:
    return {
        "memories": len(report.memories),
        "max_replication": report.max_replication,
    }


def estimate_report_fields(report: Any) -> dict:
    return {
        "latency_cycles": report.latency_cycles,
        "runtime_ms": round(report.runtime_ms, 3),
        "luts": report.luts,
        "ffs": report.ffs,
        "brams": report.brams,
        "dsps": report.dsps,
        "ii": report.ii,
        "predictable": report.predictable,
    }


def interp_memory_fields(result: Any) -> dict:
    return {name: array.ravel().tolist()
            for name, array in result.memories.items()}


def _payload(pipeline: CompilerPipeline, source: str, opts: dict,
             produce: Callable[[], dict]) -> dict:
    try:
        return {"ok": True, **produce()}
    except DahliaError as error:
        return {"ok": False,
                "diagnostic": diagnostic_payload(error, SourceFile(source))}


@_stage("check_payload", deps=("check",))
def _check_payload(pipeline: CompilerPipeline, source: str,
                   opts: dict) -> dict:
    return _payload(pipeline, source, opts, lambda: check_report_fields(
        pipeline.run("check", source, opts)))


@_stage("estimate_payload", deps=("estimate",))
def _estimate_payload(pipeline: CompilerPipeline, source: str,
                      opts: dict) -> dict:
    return _payload(pipeline, source, opts, lambda: {
        "report": estimate_report_fields(
            pipeline.run("estimate", source, opts))})


@_stage("compile_payload", deps=("compile",))
def _compile_payload(pipeline: CompilerPipeline, source: str,
                     opts: dict) -> dict:
    return _payload(pipeline, source, opts, lambda: {
        "cpp": pipeline.run("compile", source, opts)})


@_stage("rtl_payload", deps=("rtl",))
def _rtl_payload(pipeline: CompilerPipeline, source: str,
                 opts: dict) -> dict:
    return _payload(pipeline, source, opts, lambda: {
        "verilog": pipeline.run("rtl", source, opts)})


@_stage("interp_payload", deps=("interp",))
def _interp_payload(pipeline: CompilerPipeline, source: str,
                    opts: dict) -> dict:
    return _payload(pipeline, source, opts, lambda: {
        "memories": interp_memory_fields(
            pipeline.run("interp", source, opts))})


# ---------------------------------------------------------------------------
# DSE (space-level, not source-level — dispatches to the sweep engine).
# ---------------------------------------------------------------------------

def _dse_configs(space_name: str, sample: int,
                 sample_seed: int | None):
    """Resolve a family and materialize its (possibly sampled) configs.

    Raises :class:`ValueError` for an unknown family or a negative
    sample so callers can map it to their own error surface.
    """
    from ..suite import generators

    space_fn, source_fn, kernel_fn = generators.resolve_family(space_name)
    if sample < 0:
        raise ValueError("sample must be >= 0 (0 sweeps the full space)")
    space = space_fn()
    configs = (list(space.sample(sample, seed=sample_seed))
               if sample and sample < space.size else space)
    return configs, source_fn, kernel_fn


def dse_summary(space_name: str, *, sample: int = 500,
                sample_seed: int | None = None,
                workers: int | None = None, memoize: bool = True,
                progress: Callable[[int], None] | None = None) -> dict:
    """Run a named design-space sweep and summarize it.

    This is the single implementation behind both ``cli dse --json``
    and the ``/dse`` endpoint, dispatching to
    :func:`repro.dse.engine.sweep` (parallel fan-out + acceptance
    memoization). ``sample_seed`` switches the subsample from evenly
    strided to seeded-random (reproducible for the same seed).
    """
    from ..dse import sweep

    configs, source_fn, kernel_fn = _dse_configs(space_name, sample,
                                                 sample_seed)
    with telemetry.span("dse.summary", space=space_name):
        result = sweep(configs, source_fn, kernel_fn, workers=workers,
                       memoize=memoize, progress=progress)
    stats = result.stats
    return {
        "space": space_name,
        "points": result.total,
        "accepted": len(result.accepted),
        "acceptance_rate": round(result.acceptance_rate, 4),
        "rejection_kinds": result.rejection_counts(),
        "global_pareto": len(result.pareto()),
        "accepted_pareto": len(result.accepted_pareto()),
        "accepted_on_frontier": result.accepted_on_frontier(),
        "engine": stats.as_dict() if stats is not None else None,
    }


def dse_frontier_summary(space_name: str, *, budget: int | None = None,
                         sample: int = 500,
                         sample_seed: int | None = None,
                         workers: int | None = None,
                         batch_size: int | None = None,
                         memoize: bool = True,
                         progress: Callable[[int], None] | None = None,
                         on_update: Callable[[dict], None] | None = None,
                         ) -> dict:
    """Run a named frontier-guided (adaptive) Pareto query.

    The counterpart of :func:`dse_summary` for ``mode="frontier"``:
    checker verdicts are resolved for the whole (sampled) space, but
    only adaptively proposed candidates get full estimation, and the
    summary reports the convergence story — ``converged`` means the
    returned frontier is byte-identical to the exhaustive oracle's
    accepted-Pareto set. ``on_update`` observes every frontier version
    advance with a JSON-ready update dict (the streaming ``/dse``
    lines).
    """
    from ..dse import sweep

    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0 (omit it to run to "
                         "convergence)")
    configs, source_fn, kernel_fn = _dse_configs(space_name, sample,
                                                 sample_seed)
    with telemetry.span("dse.frontier", space=space_name):
        result = sweep(configs, source_fn, kernel_fn, workers=workers,
                       memoize=memoize, progress=progress,
                       mode="frontier", budget=budget,
                       batch_size=batch_size,
                       on_frontier_update=on_update)
    stats = result.stats
    return {
        "space": space_name,
        "mode": "frontier",
        "points": result.space_size,
        "candidates": result.candidates,
        "budget": result.budget,
        "converged": result.converged,
        "evaluated": stats.points_evaluated,
        "evaluated_fraction": (
            round(stats.points_evaluated / result.space_size, 4)
            if result.space_size else 0.0),
        "frontier_size": len(result.frontier),
        "frontier": [
            {"config": point.config,
             "objectives": list(point.objectives)}
            for point in result.frontier],
        "frontier_versions": stats.frontier_versions,
        "trajectory": result.trajectory,
        "engine": stats.as_dict(),
    }
