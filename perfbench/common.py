"""Shared plumbing for the seeded benchmark: paths, stamps, statistics,
memory readings, set-up probes, the layer tracer and result assembly.

Nothing here starts work on import. Every workload module builds on
these helpers, so a metric is computed the same way on every workload.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Directory holding the benchmark; its parent is the checkout root.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-up is measured this many times per run (fresh processes); the
#: median is reported.
SETUP_REPEATS = 5

#: Timed passes per run (edit-session, serve-mixed). A host that shares
#: its cores can switch speed every few seconds; each metric reports its
#: best pass, the one least slowed by others' work, as ``timeit``
#: reports its best repeat.
PASSES = 3

#: Bound on one set-up probe, so a hung child cannot hold the run.
SETUP_TIMEOUT_S = 60.0


def program_present() -> bool:
    """Is the program under test (the ``repro`` package) in this checkout?"""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cpus() -> list[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Keep this process (and threads and children it starts later) on
    one CPU, so the scheduler does not move it between runs' timings."""
    os.sched_setaffinity(0, {cpu})


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's sources, and
    none of the variables that change the program's defaults."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Result stamps
# ---------------------------------------------------------------------------

def revision() -> str:
    """The git revision, or a digest of ``src/`` outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return "src-" + hasher.hexdigest()[:12]


def stamp() -> dict[str, Any]:
    import numpy

    return {"revision": revision(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Statistics and memory
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs
    right now. Reported beside the metrics (never folded into
    them) so that a shift of the host's speed between runs shows."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def put_best_pass(outcome: "Outcome",
                  passes: list[tuple[float, list[float]]]) -> None:
    """Record throughput and latency from the best of several passes.

    Each pass is ``(operations per second, latencies in seconds)``; each
    metric takes its best value over the passes.
    """
    outcome.put("throughput_per_s", max(rate for rate, _ in passes), "1/s")
    for name, q in (("latency_ms_p50", 0.50), ("latency_ms_p99", 0.99)):
        outcome.put(name, min(percentile(lat, q) for _, lat in passes)
                    * 1000.0, "ms")
    outcome.report["operations"] = sum(len(lat) for _, lat in passes)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes.

    Each probe re-runs ``run.py --setup-probe``, which times the
    workload's imports and set-up inside a new interpreter and prints
    the seconds as its last line.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Layer tracing from outside the program
# ---------------------------------------------------------------------------

class LayerTracer:
    """Times calls into public functions by wrapping them in place.

    A wrapped call's *self* time is its duration minus the time spent
    in wrapped calls it made, so the layers never double count. The
    wrappers replace every binding of the function in the loaded
    ``repro`` modules (``from x import f`` copies the binding) and
    are removed by :meth:`restore`. Single-threaded use only.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
        return timed

    def function(self, layer: str, module: Any, name: str) -> None:
        """Wrap ``module.name`` and every other binding of it."""
        target = getattr(module, name)
        wrapper = self._wrap(layer, target)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is None or not getattr(
                    loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(namespace.items()):
                if value is target:
                    self._undo.append((loaded, attr, value))
                    setattr(loaded, attr, wrapper)

    def method(self, layer: str, cls: type, name: str) -> None:
        target = cls.__dict__[name]
        self._undo.append((cls, name, target))
        setattr(cls, name, self._wrap(layer, target))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is remembered."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)

    def fail(self, what: str) -> None:
        """Mark an already-counted operation as failed."""
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def emit(outcome: Outcome, expected: list[dict[str, str]]) -> None:
    """Print the report line, then the result object as the last line.

    ``expected`` is the metric list from ``BENCHMARK.json`` for this
    mode; a metric the workload did not measure is an error, never a
    silent zero.
    """
    missing = [m["name"] for m in expected if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not report: {', '.join(missing)}")
    metrics = {}
    for spec in expected:
        value, unit = outcome.metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit!r} != "
                               f"{spec['unit']!r}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    report = dict(outcome.report)
    report["error_ratio"] = (outcome.failed / outcome.attempted
                             if outcome.attempted else 1.0)
    report["mismatches"] = outcome.mismatches
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
