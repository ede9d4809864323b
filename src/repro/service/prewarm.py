"""Corpus-driven cache prewarming.

Walks a corpus of known programs — the labeled typing-rule corpus
(:mod:`repro.suite.corpus`) and/or sampled configurations of the DSE
template families (:mod:`repro.suite.generators`) — and runs the
servable pipeline stages over each one, populating whichever artifact
store the pipeline is bound to. Pointed at the persistent disk tier
(``--cache-dir``), this warms the cache **ahead of traffic**: a server
fleet sharing that directory starts serving warm-path latencies from
its first request.

This is a library entry (`prewarm_corpus`) independent of the ``/dse``
endpoint and of any running server; ``dahlia-py cache prewarm`` is the
CLI face. Because artifact keys are content-addressed, prewarming is
idempotent and safe to run concurrently with live traffic.

Warming writes only to the pipeline's own tiers; no server accepts
pushed artifacts. A node without the shared directory gets these
artifacts by a verified ``serve --peers`` fetch from a node that has
them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..util import telemetry
from .pipeline import CompilerPipeline

#: Payload stages warmed for every source; rejected programs stop at
#: ``check_payload`` (their rejection is the cacheable artifact).
DEFAULT_STAGES: tuple[str, ...] = (
    "check_payload", "compile_payload", "estimate_payload")


def corpus_sources() -> list[tuple[str, str]]:
    """``(label, source)`` pairs for the labeled typing-rule corpus."""
    from ..suite.corpus import CORPUS

    return [(f"corpus:{entry.name}", entry.source) for entry in CORPUS]


def family_sources(family: str,
                   sample: int = 24) -> list[tuple[str, str]]:
    """``(label, source)`` pairs for a DSE family's sampled configs.

    ``sample=0`` walks the full space (tens of thousands of points —
    only sensible for offline warm-up jobs). Raises ``ValueError`` for
    an unknown family so the CLI can surface the known names.
    """
    from ..suite import generators

    triple = generators.DSE_FAMILIES.get(family)
    if triple is None:
        known = ", ".join(sorted(generators.DSE_FAMILIES))
        raise ValueError(f"unknown DSE family {family!r} "
                         f"(choose from: {known})")
    if sample < 0:
        raise ValueError("sample must be >= 0 (0 walks the full space)")
    space_fn, source_fn, _ = (getattr(generators, name)
                              for name in triple)
    space = space_fn()
    configs = (space.sample(sample)
               if sample and sample < space.size else space)
    return [(f"{family}[{index}]", source_fn(config))
            for index, config in enumerate(configs)]


def prewarm_corpus(pipeline: CompilerPipeline,
                   *,
                   families: Sequence[str] = (),
                   sample: int = 24,
                   include_corpus: bool = True,
                   stages: Iterable[str] = DEFAULT_STAGES,
                   progress: Callable[[str], None] | None = None) -> dict:
    """Populate ``pipeline``'s artifact store from a corpus walk.

    For every source, the first stage in ``stages`` (conventionally
    ``check_payload``) always runs; later stages run only when the
    program was accepted — a rejection *is* the cacheable artifact for
    the downstream stages' error path. A corpus entry that does not
    even parse is recorded in ``parse_failures`` (by label) and the
    walk continues; unexpected (non-Dahlia) stage failures are
    counted, not raised, so one odd corpus entry cannot abort a
    warm-up job.

    Returns a summary: sources walked, artifacts computed
    (``warmed``) or already present (``skipped`` — digest collisions
    with earlier work, also broken out per stage in ``per_stage``),
    failures, parse failures, and the store's statistics snapshot.
    """
    from ..errors import DahliaError

    stages = tuple(stages)
    if not stages:
        raise ValueError("prewarm needs at least one stage")
    sources: list[tuple[str, str]] = []
    if include_corpus:
        sources.extend(corpus_sources())
    for family in families:
        sources.extend(family_sources(family, sample=sample))

    warmed = 0
    skipped = 0
    accepted = 0
    failures = 0
    parse_failures: list[str] = []
    per_stage = {stage: {"warmed": 0, "skipped": 0} for stage in stages}

    def run_stage(stage: str, source: str) -> object:
        nonlocal warmed, skipped
        present = pipeline.key(stage, source) in pipeline.store
        payload = pipeline.run(stage, source)
        if present:
            skipped += 1
            per_stage[stage]["skipped"] += 1
        else:
            warmed += 1
            per_stage[stage]["warmed"] += 1
        return payload

    for label, source in sources:
        # Under an ambient root span (``cache prewarm --trace-out``)
        # every source gets its own span and the stage spans beneath it
        # inherit the cache-tier attribution; untraced, ``span`` yields
        # the shared no-op and costs one attribute load.
        with telemetry.span("prewarm.source", label=label):
            try:
                pipeline.resolve(source)
            except DahliaError:
                # The entry is not even parseable Dahlia: record it and
                # keep walking — one bad corpus file must not abort the
                # warm pass. (Its rejection payload is still cacheable.)
                parse_failures.append(label)
            except Exception:          # noqa: BLE001 — warm-up is best-effort
                # Infrastructure failure (not invalid Dahlia): count it,
                # skip the entry, and leave parse_failures honest.
                failures += 1
                if progress is not None:
                    progress(label)
                continue
            ok = True
            try:
                payload = run_stage(stages[0], source)
                ok = bool(payload.get("ok", True)) \
                    if isinstance(payload, dict) else True
            except Exception:          # noqa: BLE001 — warm-up is best-effort
                failures += 1
                ok = False
            if ok:
                accepted += 1
                for stage in stages[1:]:
                    try:
                        run_stage(stage, source)
                    except Exception:  # noqa: BLE001
                        failures += 1
        if progress is not None:
            progress(label)
    return {
        "sources": len(sources),
        "accepted": accepted,
        "artifacts": warmed,
        "skipped": skipped,
        "per_stage": per_stage,
        "failures": failures,
        "parse_failures": parse_failures,
        "families": list(families),
        "stages": list(stages),
        "store": pipeline.stats(),
    }
