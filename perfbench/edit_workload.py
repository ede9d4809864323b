"""``edit-session``: a stream of ``SessionManager.edit`` calls, in process.

The document is the 12-def checker-heavy program (each def fills two
64×64-banked scratchpads). Most edits rebind one def's constant to a
seeded value. One edit in seven breaks a def so the checker rejects it,
and the next edit restores it; rejected verdicts are never stored, so
this path re-checks every time.

End-to-end metrics, each the best of :data:`~perfbench.common.PASSES`
consecutive passes of the stream: ``latency_ms_p50``/``latency_ms_p99``
over edit calls, ``throughput_per_s`` edits per second spent in edit
calls (the benchmark's own delta computation between calls is left
out).

Oracle (after timing): the final verdict and a seeded subset of
intermediate verdicts must equal the monolithic ``check_program`` on a
cold ``parse()`` of the same text.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Any, Iterator

from . import layers
from .common import (
    PASSES, LayerTracer, Outcome, cpus, peak_rss_mb, pin, put_best_pass,
)

DEFS = 12
#: Share of ordinary edits whose verdict the oracle re-derives.
SAMPLE_SHARE = 0.02
#: Cap on re-derived verdicts (a cold check of this program is ~0.1 s).
MAX_SAMPLES = 30
#: Edits per pass in the traced run.
TRACE_PASS = 100

#: Ways to make stage ``k`` ill-typed: (kind, old text, new text).
_BREAKS = (
    ("already-consumed", "out[{slot}] := x + {k}.0;",
     "out[{slot}] := x + {k}.0;\n  out[{other}] := x;"),
    ("insufficient-banks", "for (let j = 0..256) unroll 64 {{\n"
     "      acc[i][j] := x * {c};",
     "for (let j = 0..256) unroll 128 {{\n      acc[i][j] := x * {c};"),
    ("unroll", "for (let j = 0..256) unroll 64 {{\n"
     "      acc[i][j] := x * {c};",
     "for (let j = 0..256) unroll 48 {{\n      acc[i][j] := x * {c};"),
)


def make_source(constants: list[float]) -> str:
    """The program: def ``k`` scales by ``constants[k]``."""
    mem = "float[256 bank 64][256 bank 64]"
    parts = []
    for k, c in enumerate(constants):
        parts.append(f"""\
def stage{k}(x: float, out: float[16 bank 4]) {{
  let acc: {mem};
  let tmp: {mem};
  for (let i = 0..256) unroll 64 {{
    for (let j = 0..256) unroll 64 {{
      acc[i][j] := x * {c};
      tmp[i][j] := x + {c * 0.5};
    }}
  }}
  ---
  out[{k % 16}] := x + {float(k)};
}}""")
    parts.append("decl O: float[16 bank 4];")
    parts.append("\n---\n".join(f"stage{k}({float(k)}, O)"
                                for k in range(len(constants))))
    return "\n".join(parts) + "\n"


def _delta(old: str, new: str) -> dict[str, Any]:
    """The single replacement turning ``old`` into ``new``."""
    limit = min(len(old), len(new))
    start = 0
    while start < limit and old[start] == new[start]:
        start += 1
    tail = 0
    while tail < limit - start and old[-1 - tail] == new[-1 - tail]:
        tail += 1
    return {"start": start, "end": len(old) - tail,
            "text": new[start:len(new) - tail]}


def edit_stream(seed: int) -> Iterator[tuple[str, str | None, bool]]:
    """Endless ``(new text, expected rejection kind, sampled)`` edits.

    The stream runs in cycles: every def is rebound once, in a seeded
    order, then one seeded def is broken (the break kinds take turns)
    and fixed. Only the choices are seeded, not the mix, so every seed
    costs about the same.
    """
    rng = random.Random(f"{seed}:edits")
    constants = [float(k + 1) for k in range(DEFS)]
    breaks = itertools.cycle(_BREAKS)
    while True:
        for k in rng.sample(range(DEFS), DEFS):
            constants[k] = round(rng.uniform(1.0, 999.0), 3)
            yield make_source(constants), None, rng.random() < SAMPLE_SHARE
        kind, old, new = next(breaks)
        k = rng.randrange(DEFS)
        fields = {"slot": k % 16, "other": k % 16 + 4, "k": k,
                  "c": constants[k]}
        text = make_source(constants)
        yield text.replace(old.format(**fields), new.format(**fields), 1), \
            kind, True
        yield text, None, True


def setup(seed: int):
    """Imports, the pipeline, and the opened (fully checked) session."""
    from repro.service.pipeline import CompilerPipeline
    from repro.service.session import SessionManager

    text = make_source([float(k + 1) for k in range(DEFS)])
    manager = SessionManager(CompilerPipeline())
    status, payload = manager.open({"source": text, "session": "bench"})
    if status != 200 or not payload["check"]["ok"]:
        raise RuntimeError(f"session open failed: {payload}")
    return manager, text


class _Editor:
    """Applies the seeded stream to the open session, one edit a call."""

    def __init__(self, manager, text: str, seed: int,
                 outcome: Outcome) -> None:
        self.manager = manager
        self.text = text
        self.version = 0
        self.stream = edit_stream(seed)
        self.outcome = outcome
        self.samples: list[tuple[str, dict]] = []
        self.last: tuple[str, dict] = (text, {})
        self.reparsed = 0

    def step(self) -> float:
        new, kind, sampled = next(self.stream)
        delta = _delta(self.text, new)
        self.version += 1
        started = time.perf_counter()
        status, payload = self.manager.edit(
            "bench", {"version": self.version, "edits": [delta]})
        elapsed = time.perf_counter() - started
        self.text = new
        ok = status == 200 and payload.get("ok")
        verdict = payload.get("check", {}) if ok else {}
        if kind is None:
            ok = ok and verdict.get("ok") is True
        else:
            ok = (ok and verdict.get("ok") is False
                  and verdict["diagnostic"]["kind"] == kind)
        self.outcome.check(bool(ok), f"edit {self.version} (break: {kind})")
        if ok:
            self.reparsed += payload["reparsed"]
            self.last = (new, verdict)
            if sampled and len(self.samples) < MAX_SAMPLES:
                self.samples.append(self.last)
        return elapsed


def _cold_verdict(text: str) -> dict:
    from repro.errors import DahliaError
    from repro.frontend.parser import parse
    from repro.service.pipeline import check_report_fields
    from repro.source import SourceFile
    from repro.types.checker import check_program
    from repro.util.diagnostics import diagnostic_payload

    try:
        return {"ok": True, **check_report_fields(check_program(parse(text)))}
    except DahliaError as error:
        return {"ok": False,
                "diagnostic": diagnostic_payload(error, SourceFile(text))}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    pin(cpus()[-1])
    manager, text = setup(seed)
    outcome = Outcome()
    editor = _Editor(manager, text, seed, outcome)
    if trace:
        layers.put(outcome, _traced(editor, manager, seconds))
    else:
        passes = []
        for _ in range(PASSES):
            latencies = []
            deadline = time.perf_counter() + seconds / PASSES
            while not latencies or time.perf_counter() < deadline:
                latencies.append(editor.step())
            passes.append((len(latencies) / sum(latencies), latencies))
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        put_best_pass(outcome, passes)
    # The final verdict is always checked; sampled ones besides it.
    checks = editor.samples + [editor.last]
    for text_at, verdict in checks:
        if verdict != _cold_verdict(text_at):
            outcome.fail("session verdict differs from a cold parse+check")
    outcome.report["oracle_checks"] = len(checks)
    return outcome


def _traced(editor: _Editor, manager, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced passes of :data:`TRACE_PASS` edits."""
    tracer = LayerTracer()
    functions = manager.pipeline.functions
    untraced_s = traced_s = 0.0
    traced = checked = reused = reparsed = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced_s += sum(editor.step() for _ in range(TRACE_PASS))
        before = (functions.checked, functions.reused, editor.reparsed)
        layers.install(tracer)
        try:
            traced_s += sum(editor.step() for _ in range(TRACE_PASS))
        finally:
            tracer.restore()
        traced += TRACE_PASS
        checked += functions.checked - before[0]
        reused += functions.reused - before[1]
        reparsed += editor.reparsed - before[2]
    values = layers.zeros()
    values.update(layers.tracer_metrics(tracer, traced))
    layers.reuse(values, checked, reused, traced)
    values["frontend.segments_reparsed"] = reparsed / traced
    op_s = traced_s / traced
    return layers.finish(values, op_s=op_s,
                         attributed_s=tracer.total_self_s() / traced,
                         untraced_op_s=untraced_s / traced)
