"""``serve-mixed``: a ``repro.cli serve`` subprocess under a closed loop.

Two client threads in this process each hold one keep-alive
``ServiceClient`` connection and send their next request only after the
previous reply. Each request is ``/check``, ``/estimate`` or ``/compile``
(5:3:2) on a Zipf-drawn (s = 1.1) source: seeded DSE-family sources,
half of them accepted ones, plus every ``CORPUS`` entry. The working
set is larger than the server's default 512-entry memory cache, so the
stream mixes warm hits (transport-bound) with misses (pipeline-bound).

End-to-end metrics: ``throughput_per_s`` requests per second of the
loop, ``latency_ms_p50``/``latency_ms_p99`` over client-side request
latencies, each the best of :data:`~perfbench.common.PASSES` passes that
replay the same request stream on one server (the first starts from a
cold cache); ``peak_rss_mb`` of the server, ``setup_s`` from spawn to a
ready ``/healthz``.

Oracles (after timing): every response body must be byte-equal to the
in-process ``CompilerPipeline`` payload for the same source, and every
``CORPUS`` response must carry the entry's expected verdict.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Iterator

from . import layers
from .common import (
    PASSES, ROOT, SETUP_REPEATS, Outcome, child_env, cpus, peak_rss_mb, pin,
    put_best_pass,
)

FAMILY_SOURCES = 100                 # per family; half of them accepted
ZIPF_S = 1.1
MIX = (("check", 5), ("estimate", 3), ("compile", 2))
CLIENTS = 2
#: Interpreter switch interval of the client process. The default 5 ms
#: lets one client thread hold the interpreter while the other's reply
#: waits, which adds milliseconds of jitter to sub-millisecond requests.
CLIENT_SWITCH_INTERVAL_S = 0.0005
#: Requests per client in each pass of the traced run.
TRACE_PASS = 1000
START_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _accepted_configs(source_fn, space: list[dict]) -> list[dict]:
    """Configurations the reference parse-and-check accepts, decided
    once per acceptance key."""
    from repro.dse.runner import check_acceptance

    verdicts: dict[Any, bool] = {}
    accepted = []
    for config in space:
        key = source_fn.acceptance_key(config)
        if key not in verdicts:
            verdicts[key] = check_acceptance(source_fn(config))[0]
        if verdicts[key]:
            accepted.append(config)
    return accepted


def make_items(seed: int) -> list[dict[str, Any]]:
    """The sources, in Zipf rank order (rank 0 is the most requested).

    Each item is ``{"label", "source", "expected"}``; ``expected`` is
    the ``CORPUS`` verdict (``None`` = accepted) or absent for family
    sources.
    """
    from repro.suite import generators
    from repro.suite.corpus import CORPUS

    rng = random.Random(f"{seed}:sources")
    groups: list[list[dict[str, Any]]] = []
    seen: set[str] = set()

    def group(label: str, sources: list[tuple[str, dict]]) -> None:
        members = []
        for suffix, item in sources:
            if item["source"] not in seen:
                seen.add(item["source"])
                members.append({"label": f"{label}:{suffix}", **item})
        rng.shuffle(members)
        groups.append(members)

    for name in sorted(generators.DSE_FAMILIES):
        space_fn, source_fn, _ = generators.resolve_family(name)
        space = list(space_fn())
        accepted = _accepted_configs(source_fn, space)
        picks = rng.sample(accepted, min(FAMILY_SOURCES // 2, len(accepted)))
        group(f"{name}:accepted",
              [(str(c), {"source": source_fn(c)}) for c in picks])
        group(f"{name}:any",
              [(str(c), {"source": source_fn(c)}) for c in
               rng.sample(space, FAMILY_SOURCES - len(picks))])
    group("corpus", [(e.name, {"source": e.source, "expected": e.expected})
                     for e in CORPUS])
    # Ranks go round-robin over the groups, so every seed puts the same
    # mix of source kinds at the hot head of the Zipf curve.
    ranked = []
    for row in itertools.zip_longest(*groups):
        ranked.extend(item for item in row if item is not None)
    return ranked


def request_plan(seed: int, client: int, n_items: int,
                 ) -> Iterator[tuple[str, int]]:
    """Endless seeded ``(endpoint, item rank)`` requests for one client."""
    rng = random.Random(f"{seed}:client{client}")
    weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(n_items)))
    endpoints = [name for name, share in MIX for _ in range(share)]
    while True:
        rank = rng.choices(range(n_items), cum_weights=weights)[0]
        yield rng.choice(endpoints), rank


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

def _server_child(cpu: int) -> None:
    """In the forked child: pin it, let SIGINT (its clean shutdown)
    through even when a shell started the benchmark with SIGINT ignored,
    and have the kernel kill it if the benchmark dies without stopping
    it (PR_SET_PDEATHSIG)."""
    pin(cpu)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGKILL)


class Server:
    """One ``repro.cli serve`` child, default options unless told."""

    def __init__(self, cpu: int, *extra: str) -> None:
        from repro.service import ServiceClient

        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *extra],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            preexec_fn=lambda: _server_child(cpu))
        try:
            self.port = self._read_port(started + START_TIMEOUT_S)
            self._drain = threading.Thread(target=self._discard_output,
                                           daemon=True)
            self._drain.start()
            ServiceClient(port=self.port).wait_ready(timeout=START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        stream = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            line = stream.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return int(match.group(2))
        raise RuntimeError("server did not report its port")

    def _discard_output(self) -> None:
        with contextlib.suppress(ValueError, OSError):
            for _ in self.process.stdout:
                pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=15)       # the exited child closed the pipe
        self.process.stdout.close()


def start_measured(cpu: int) -> tuple[Server, float]:
    """Start :data:`SETUP_REPEATS` servers, keep the last, report the
    median start-to-ready time."""
    times = []
    for attempt in range(SETUP_REPEATS):
        server = Server(cpu)
        times.append(server.setup_s)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    return server, statistics.median(times)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class _Log:
    """Everything the clients observed, merged after the loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: (endpoint, rank) → Counter of (status, body) replies.
        self.replies: dict[tuple[str, int], Counter] = defaultdict(Counter)
        self.traces: list[tuple[float, dict]] = []
        self.lock = threading.Lock()


def drive(port: int, seed: int, n_items: int, items: list[dict], *,
          seconds: float | None = None, count: int | None = None,
          fetch_traces: bool = False) -> tuple[_Log, float]:
    """Run :data:`CLIENTS` closed-loop clients for ``seconds`` or
    ``count`` requests each; returns the log and the loop wall time."""
    from repro.service import ServiceClient

    log = _Log()
    errors: list[Exception] = []
    deadline = time.perf_counter() + seconds if seconds else None

    def client_main(index: int) -> None:
        client = ServiceClient(port=port, timeout=60.0)
        plan = request_plan(seed, index, n_items)
        latencies, traces = [], []
        replies: dict[tuple[str, int], Counter] = defaultdict(Counter)
        try:
            for done in itertools.count():
                if count is not None and done >= count:
                    break
                if deadline is not None and done \
                        and time.perf_counter() >= deadline:
                    break
                endpoint, rank = next(plan)
                payload = {"source": items[rank]["source"]}
                started = time.perf_counter()
                status, body = client.raw("POST", f"/{endpoint}", payload)
                latency = time.perf_counter() - started
                latencies.append(latency)
                replies[(endpoint, rank)][(status, body)] += 1
                if fetch_traces:
                    trace = client.trace(client.last_request_id)["trace"]
                    traces.append((latency, trace))
        except Exception as error:               # re-raised after join
            errors.append(error)
        finally:
            client.close()
            with log.lock:
                log.latencies.extend(latencies)
                log.traces.extend(traces)
                for key, seen in replies.items():
                    log.replies[key].update(seen)

    threads = [threading.Thread(target=client_main, args=(index,))
               for index in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return log, wall


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def verify(outcome: Outcome, logs: list[_Log], items: list[dict]) -> None:
    """Count every request and fail each one whose reply is wrong."""
    from repro.service.pipeline import CompilerPipeline
    from repro.service.server import encode_payload

    replies: dict[tuple[str, int], Counter] = defaultdict(Counter)
    for log in logs:
        for key, seen in log.replies.items():
            replies[key].update(seen)
    for (endpoint, rank), seen in sorted(replies.items()):
        item = items[rank]
        expected = encode_payload(CompilerPipeline().run(
            f"{endpoint}_payload", item["source"]))
        for (status, body), times in seen.items():
            outcome.attempted += times
            if status != 200 or body != expected or not _corpus_ok(
                    endpoint, item, json.loads(body)):
                outcome.fail(f"{endpoint} {item['label']}: HTTP {status}, "
                             f"reply differs from the in-process payload "
                             f"or the expected verdict")
                outcome.failed += times - 1


def _corpus_ok(endpoint: str, item: dict, payload: dict) -> bool:
    if "expected" not in item:
        return True
    kind = item["expected"]
    if kind is None:
        return endpoint != "check" or payload["ok"] is True
    return payload["ok"] is False and payload["diagnostic"]["kind"] == kind


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool) -> Outcome:
    # The server gets the first CPU and the clients the last, so neither
    # is moved around by the scheduler mid-run.
    allowed = cpus()
    server_cpu = allowed[0]
    pin(allowed[-1])
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
    items = make_items(seed)
    outcome = Outcome()
    outcome.report["sources"] = len(items)
    if trace:
        layers.put(outcome, _traced(outcome, seed, items, server_cpu))
        return outcome
    server, setup_s = start_measured(server_cpu)
    logs, passes = [], []
    try:
        for _ in range(PASSES):
            log, wall = drive(server.port, seed, len(items), items,
                              seconds=seconds / PASSES)
            logs.append(log)
            passes.append((len(log.latencies) / wall, log.latencies))
        rss = server.peak_rss_mb()
        metrics = _metrics(server.port)
    finally:
        server.stop()
    outcome.put("setup_s", setup_s, "s")
    outcome.put("peak_rss_mb", rss, "MB")
    put_best_pass(outcome, passes)
    outcome.report["payload_hit_ratio"] = _payload_hit_ratio(metrics)
    verify(outcome, logs, items)
    return outcome


def _metrics(port: int) -> dict:
    from repro.service import ServiceClient

    client = ServiceClient(port=port)
    try:
        return client.metrics()
    finally:
        client.close()


_PAYLOAD_STAGES = ("check_payload", "estimate_payload", "compile_payload")


def _payload_hit_ratio(metrics: dict) -> float:
    stages = metrics["cache"]["stages"]
    hits = sum(stages.get(s, {}).get("hits", 0) for s in _PAYLOAD_STAGES)
    misses = sum(stages.get(s, {}).get("misses", 0) for s in _PAYLOAD_STAGES)
    return hits / (hits + misses) if hits + misses else 0.0


def _traced(outcome: Outcome, seed: int, items: list[dict],
            server_cpu: int) -> dict[str, float]:
    """One pass against a default server, then the same pass against a
    ``--trace-sample 1.0`` server whose traces are read back per request.
    """
    baseline = Server(server_cpu)
    try:
        plain, _ = drive(baseline.port, seed, len(items), items,
                         count=TRACE_PASS)
    finally:
        baseline.stop()
    traced_server = Server(server_cpu, "--trace-sample", "1.0")
    try:
        log, _ = drive(traced_server.port, seed, len(items), items,
                       count=TRACE_PASS, fetch_traces=True)
        metrics = _metrics(traced_server.port)
    finally:
        traced_server.stop()
    verify(outcome, [plain, log], items)

    requests = len(log.traces)
    self_s: dict[str, float] = defaultdict(float)
    transport_s = client_s = 0.0
    estimate_misses = 0
    for latency, trace in log.traces:
        spans = trace["spans"]
        for name, seconds in layers.span_self_times(spans).items():
            self_s[name] += seconds
        root = next(s for s in spans if s["span_id"] == trace["root"])
        transport_s += latency - float(root["duration_s"])
        client_s += latency
        estimate_misses += sum(
            1 for s in spans if s["name"] == "stage:estimate"
            and s.get("attrs", {}).get("cache") == "miss")
    # The handler's own time: root spans ("POST /check") minus stages.
    handler_s = sum(seconds for name, seconds in self_s.items()
                    if name.startswith("POST "))

    values = layers.zeros()
    values.update(layers.stage_metrics(self_s, requests))
    for metric, stage in (("types.check_ms", "check"),
                          ("hls.estimate_ms", "estimate"),
                          ("backend.emit_ms", "compile"),
                          ("ir.resolve_ms", "resolve")):
        values[metric] = values[f"pipeline.stage_ms.{stage}"]
    values["hls.estimate_calls"] = estimate_misses / requests
    functions = metrics["cache"]["functions"]
    layers.reuse(values, functions["checked"], functions["reused"], requests)
    values["artifacts.hit_ratio.memory"] = _payload_hit_ratio(metrics)
    # Coalescing is read from the per-stage counters (plus the /dse
    # flight's own), not cache.singleflight, which sees only the
    # pipeline's flight.
    coalesced = metrics["dse"]["coalesced"] + sum(
        counters.get("coalesced", 0)
        for counters in metrics["cache"]["stages"].values())
    values["artifacts.coalesced"] = coalesced / requests
    values["server.transport_ms"] = transport_s * 1000.0 / requests
    op_s = client_s / requests
    return layers.finish(
        values, op_s=op_s, attributed_s=op_s - handler_s / requests,
        untraced_op_s=sum(plain.latencies) / len(plain.latencies))
