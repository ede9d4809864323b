"""``dahlia-py`` — command-line driver for the Dahlia reproduction.

Subcommands mirror the stages of Figure 1:

* ``check``    — type-check a Dahlia file (exit 1 + diagnostic on error);
* ``compile``  — emit Vivado HLS C++ (``--erase`` for the plain-C++ path);
* ``run``      — interpret a program with zero-initialized memories and
  print the final memory contents;
* ``estimate`` — extract a kernel and print the HLS estimator's report;
* ``bench``    — list the registered MachSuite ports;
* ``rtl``      — emit Verilog via the direct RTL backend (§6), or a
  netlist/cycle report with ``--report``;
* ``pipeline`` — per-loop initiation-interval report (§6);
* ``dse``      — run a §5.2/§5.3 design-space sweep through the
  high-throughput engine (parallel workers + acceptance memoization +
  parse-free template substitution);
* ``cache``    — artifact-cache maintenance (``cache prewarm`` walks a
  corpus and warms the persistent tier ahead of traffic);
* ``serve``    — start the compiler service (asyncio JSON-over-HTTP
  with a content-addressed artifact cache);
* ``session``  — interactive incremental edit session: open a file as
  a stateful document, apply edits line by line, and get a fresh check
  verdict after each one (only the touched definitions re-parse);
* ``trace``    — fetch request traces from a running service (list
  summaries, dump one trace, or export Chrome trace-event JSON).

File-taking subcommands accept ``--json`` for machine-readable JSON
diagnostics on stderr, and ``check``/``compile``/``run``/``estimate``/
``dse`` accept ``--server HOST:PORT`` to dispatch to a running service
instead of compiling locally (output is identical either way).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Callable

from .backend.hls_cpp import EmitterOptions, compile_program
from .errors import DahliaError
from .frontend.parser import parse
from .hls.estimator import estimate
from .hls.extract import extract_kernel
from .interp.interpreter import interpret_program
from .source import SourceFile
from .suite.generators import DSE_FAMILIES
from .types.checker import check_program


def _load(path: str) -> tuple[str, SourceFile]:
    with open(path) as handle:
        text = handle.read()
    return text, SourceFile(text, path)


def _diagnose(error: DahliaError, source: SourceFile,
              as_json: bool = False) -> None:
    from .util.diagnostics import diagnostic_payload

    if as_json:
        print(json.dumps(diagnostic_payload(error, source), indent=2),
              file=sys.stderr)
        return
    print(f"error: {error}", file=sys.stderr)
    snippet = source.render_span(error.span)
    if snippet:
        print(snippet, file=sys.stderr)


def _remote_diagnose(payload: dict, as_json: bool) -> int:
    """Render a service ``{"ok": false}`` payload like a local error."""
    from .util.diagnostics import render_diagnostic

    diagnostic = payload.get("diagnostic") or {}
    if as_json:
        print(json.dumps(diagnostic, indent=2), file=sys.stderr)
    else:
        print(render_diagnostic(diagnostic), file=sys.stderr)
    return 1


def source_command(remote: Callable[[argparse.Namespace, "object", str],
                                    int] | None = None):
    """Wrap a ``worker(args, text, source)`` with the shared boilerplate.

    Loads the file, renders :class:`DahliaError` diagnostics (text or
    ``--json``), and — when the subcommand supports it and ``--server``
    is given — dispatches to a running service via ``remote(args,
    client, text)`` instead of running the local worker.
    """
    def wrap(worker: Callable[[argparse.Namespace, str, SourceFile], int]):
        @functools.wraps(worker)
        def runner(args: argparse.Namespace) -> int:
            text, source = _load(args.file)
            as_json = bool(getattr(args, "json", False))
            if remote is not None and getattr(args, "server", None):
                return _run_remote(args, text, remote)
            try:
                return worker(args, text, source)
            except DahliaError as error:
                _diagnose(error, source, as_json)
                return 1
        return runner
    return wrap


def _run_remote(args: argparse.Namespace, text: str,
                remote: Callable) -> int:
    from .service.client import ServiceClient, ServiceError

    try:
        client = ServiceClient.from_address(args.server)
        return remote(args, client, text)
    except (ServiceError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _print_memories(memories: dict[str, list]) -> None:
    for name, flat in memories.items():
        preview = flat if len(flat) <= 16 else flat[:16] + ["…"]
        print(f"{name} = {preview}")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _check_ok_line(file: str, memories: int, max_replication: int) -> str:
    return (f"{file}: OK ({memories} memories, "
            f"max replication {max_replication})")


def _remote_check(args: argparse.Namespace, client, text: str) -> int:
    payload = client.check(text)
    if not payload["ok"]:
        return _remote_diagnose(payload, args.json)
    print(_check_ok_line(args.file, payload["memories"],
                         payload["max_replication"]))
    return 0


@source_command(remote=_remote_check)
def cmd_check(args: argparse.Namespace, text: str,
              source: SourceFile) -> int:
    report = check_program(parse(text, args.file))
    print(_check_ok_line(args.file, len(report.memories),
                         report.max_replication))
    return 0


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def _remote_compile(args: argparse.Namespace, client, text: str) -> int:
    payload = client.compile(text, erase=args.erase,
                             kernel_name=args.kernel_name)
    if not payload["ok"]:
        return _remote_diagnose(payload, args.json)
    print(payload["cpp"], end="")
    return 0


@source_command(remote=_remote_compile)
def cmd_compile(args: argparse.Namespace, text: str,
                source: SourceFile) -> int:
    program = parse(text, args.file)
    check_program(program)
    options = EmitterOptions(erase=args.erase,
                             kernel_name=args.kernel_name)
    print(compile_program(program, options), end="")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _remote_run(args: argparse.Namespace, client, text: str) -> int:
    payload = client.interp(text, check=not args.no_check)
    if not payload["ok"]:
        return _remote_diagnose(payload, args.json)
    _print_memories(payload["memories"])
    return 0


@source_command(remote=_remote_run)
def cmd_run(args: argparse.Namespace, text: str,
            source: SourceFile) -> int:
    from .service.pipeline import interp_memory_fields

    result = interpret_program(parse(text, args.file),
                               check=not args.no_check)
    _print_memories(interp_memory_fields(result))
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _remote_estimate(args: argparse.Namespace, client, text: str) -> int:
    payload = client.estimate(text)
    if not payload["ok"]:
        return _remote_diagnose(payload, args.json)
    print(json.dumps(payload["report"], indent=2))
    return 0


@source_command(remote=_remote_estimate)
def cmd_estimate(args: argparse.Namespace, text: str,
                 source: SourceFile) -> int:
    from .service.pipeline import estimate_report_fields

    program = parse(text, args.file)
    check_program(program)
    # Deliberately not named after the file: the kernel name seeds the
    # estimator's deterministic noise, and estimates must be a pure
    # function of source *content* so they agree with the service's
    # content-addressed cache.
    kernel = extract_kernel(program)
    print(json.dumps(estimate_report_fields(estimate(kernel)), indent=2))
    return 0


# ---------------------------------------------------------------------------
# local-only subcommands
# ---------------------------------------------------------------------------

def cmd_bench(args: argparse.Namespace) -> int:
    del args
    from .suite import ALL_PORTS

    for name, port in ALL_PORTS.items():
        print(f"{name:22s} {port.description}")
    return 0


@source_command()
def cmd_fmt(args: argparse.Namespace, text: str,
            source: SourceFile) -> int:
    from .frontend.pretty import pretty_program

    print(pretty_program(parse(text, args.file)), end="")
    return 0


@source_command()
def cmd_analyze(args: argparse.Namespace, text: str,
                source: SourceFile) -> int:
    from .analysis import classify_locals, count_logical_steps

    program = parse(text, args.file)
    check_program(program)
    report = classify_locals(program)
    print(f"logical time steps: {count_logical_steps(program.body)}")
    print(f"registers ({len(report.registers)}): "
          f"{', '.join(report.registers) or '—'}")
    print(f"wires     ({len(report.wires)}): "
          f"{', '.join(report.wires) or '—'}")
    return 0


@source_command()
def cmd_desugar(args: argparse.Namespace, text: str,
                source: SourceFile) -> int:
    from .filament.desugar import desugar
    from .filament.pretty import pretty_filament

    program = parse(text, args.file)
    check_program(program)
    print(pretty_filament(desugar(program)), end="")
    return 0


@source_command()
def cmd_rtl(args: argparse.Namespace, text: str,
            source: SourceFile) -> int:
    from .rtl import analyze, emit_verilog, lower_program, simulate

    program = parse(text, args.file)
    module = lower_program(program, name=args.module_name)
    if args.report:
        report = analyze(module)
        result = simulate(module)
        print(json.dumps({
            "states": report.states,
            "cycles": result.cycles,
            "registers": report.registers,
            "register_bits": report.register_bits,
            "memory_bits": report.memory_bits,
            "functional_units": report.units,
            "luts": report.luts,
            "ffs": report.ffs,
            "dsps": report.dsps,
            "brams": report.brams,
            "lutmems": report.lutmems,
        }, indent=2))
    else:
        print(emit_verilog(module), end="")
    return 0


@source_command()
def cmd_pipeline(args: argparse.Namespace, text: str,
                 source: SourceFile) -> int:
    from .analysis import analyze_pipelines

    reports = analyze_pipelines(parse(text, args.file))
    if not reports:
        print("no innermost loops to pipeline")
        return 0
    for report in reports:
        print(f"loop {report.loop_var}: trip {report.trip}, "
              f"unroll {report.unroll}")
        print(f"  II = {report.ii} (ports {report.ii_port}, "
              f"recurrence {report.ii_recurrence}; "
              f"bottleneck: {report.bottleneck})")
        print(f"  cycles: {report.cycles_pipelined} pipelined vs "
              f"{report.cycles_unpipelined} unpipelined "
              f"({report.speedup:.1f}x)")
    return 0


@source_command()
def cmd_fuse(args: argparse.Namespace, text: str,
             source: SourceFile) -> int:
    from .analysis.stepfusion import fuse_source

    fused, before, after = fuse_source(text)
    print(f"// logical steps: {before} -> {after}")
    print(fused, end="")
    return 0


# ---------------------------------------------------------------------------
# dse
# ---------------------------------------------------------------------------

def _print_dse_summary(summary: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary, indent=2))
        return
    if summary.get("mode") == "frontier":
        _print_frontier_summary(summary)
        return
    print(f"{summary['space']}: {summary['accepted']} / "
          f"{summary['points']} accepted "
          f"({summary['acceptance_rate']:.2%})")
    print(f"global Pareto {summary['global_pareto']}, accepted "
          f"Pareto {summary['accepted_pareto']}, accepted on "
          f"frontier {summary['accepted_on_frontier']}")
    engine = summary.get("engine")
    if engine is not None:
        print(f"engine: {engine['points_per_sec']:.1f} points/sec "
              f"({engine['workers']} workers, "
              f"{engine['checker_runs']} checker runs, "
              f"{engine['memo_hits']} memo hits)")


def _print_frontier_summary(summary: dict) -> None:
    converged = ("converged" if summary.get("converged")
                 else "budget-capped")
    print(f"{summary['space']}: frontier of {summary['frontier_size']} "
          f"from {summary['evaluated']} / {summary['points']} "
          f"evaluated ({summary['evaluated_fraction']:.2%}, "
          f"{converged})")
    print(f"candidates {summary['candidates']}, frontier versions "
          f"{summary['frontier_versions']}")
    engine = summary.get("engine")
    if engine is not None:
        print(f"engine: {engine['checker_runs']} checker runs, "
              f"{engine['points_proposed']} proposed, "
              f"{engine['points_evaluated']} estimated "
              f"({engine['workers']} workers)")


def _print_frontier_update(update: dict) -> None:
    print(json.dumps({"type": "frontier", **update}))


def cmd_dse(args: argparse.Namespace) -> int:
    if args.sample < 0:
        print("--sample must be >= 0 (0 sweeps the full space)",
              file=sys.stderr)
        return 1
    frontier = args.mode == "frontier"
    if not frontier and (args.budget is not None or args.stream):
        print("--budget/--stream require --mode frontier",
              file=sys.stderr)
        return 1

    if getattr(args, "server", None):
        from .service.client import ServiceClient, ServiceError

        try:
            # Full-space sweeps run for minutes server-side; the
            # default 60 s socket timeout would abandon them mid-run.
            client = ServiceClient.from_address(args.server,
                                                timeout=3600.0)
            if args.stream:
                # Print each frontier-update line as it arrives; the
                # final result event becomes the normal summary.
                payload: dict = {}
                for event in client.dse_stream(
                        args.space, sample=args.sample,
                        workers=args.workers,
                        memoize=not args.no_memoize,
                        budget=args.budget,
                        sample_seed=args.sample_seed):
                    if event.get("type") == "result":
                        payload = event["payload"]
                    else:
                        print(json.dumps(event))
            else:
                payload = client.dse(
                    args.space, sample=args.sample,
                    workers=args.workers,
                    memoize=not args.no_memoize,
                    mode="frontier" if frontier else None,
                    budget=args.budget,
                    sample_seed=args.sample_seed)
        except (ServiceError, ValueError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        summary = {k: v for k, v in payload.items() if k != "ok"}
        _print_dse_summary(summary, args.json)
        return 0

    from .service.pipeline import dse_frontier_summary, dse_summary

    # The carriage-return spinner only makes sense on an interactive
    # terminal; piped/redirected stderr would accumulate control lines.
    spin = not args.json and not args.stream and sys.stderr.isatty()

    def progress(done: int) -> None:
        print(f"\r{done} points…", end="", file=sys.stderr, flush=True)

    if frontier:
        summary = dse_frontier_summary(
            args.space, budget=args.budget, sample=args.sample,
            sample_seed=args.sample_seed, workers=args.workers,
            memoize=not args.no_memoize,
            progress=progress if spin else None,
            on_update=_print_frontier_update if args.stream else None)
    else:
        summary = dse_summary(args.space, sample=args.sample,
                              sample_seed=args.sample_seed,
                              workers=args.workers,
                              memoize=not args.no_memoize,
                              progress=progress if spin else None)
    if spin:
        print(file=sys.stderr)
    _print_dse_summary(summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cmd_cache_prewarm(args: argparse.Namespace) -> int:
    """Walk a corpus and populate the persistent artifact tier."""
    import os

    from .service.pipeline import CompilerPipeline
    from .service.prewarm import prewarm_corpus

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("cache prewarm needs --cache-dir (or $REPRO_CACHE_DIR): "
              "the persistent tier a fleet shares", file=sys.stderr)
        return 1
    pipeline = CompilerPipeline(disk=cache_dir,
                                disk_bytes=args.cache_mb * 1024 * 1024)
    spin = not args.json and sys.stderr.isatty()

    def progress(label: str) -> None:
        print(f"\r{label:40.40s}", end="", file=sys.stderr, flush=True)

    from .util import telemetry

    scope = (telemetry.root_span("cache prewarm")
             if args.trace_out else contextlib.nullcontext())
    try:
        with scope:
            summary = prewarm_corpus(
                pipeline,
                families=args.family or [],
                sample=args.sample,
                include_corpus=not args.no_corpus,
                progress=progress if spin else None)
    except ValueError as error:
        if spin:
            print(file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.trace_out:
        traces = telemetry.recent_traces(1)
        if traces:
            with open(args.trace_out, "w") as handle:
                json.dump(telemetry.chrome_trace(traces[0]), handle)
            print(f"trace written to {args.trace_out}", file=sys.stderr)
    if spin:
        print(file=sys.stderr)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"prewarmed {summary['artifacts']} artifacts from "
              f"{summary['sources']} sources "
              f"({summary['accepted']} accepted, "
              f"{summary['skipped']} already present, "
              f"{summary['failures']} failures) into {cache_dir}")
        for stage, counts in summary["per_stage"].items():
            print(f"  {stage}: {counts['warmed']} warmed, "
                  f"{counts['skipped']} skipped")
        if summary["parse_failures"]:
            names = ", ".join(summary["parse_failures"])
            print(f"  unparsable (recorded, not fatal): {names}")
    return 0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    peers = ([peer.strip() for peer in args.peers.split(",")
              if peer.strip()]
             if args.peers else None)
    serve(host=args.host, port=args.port, capacity=args.capacity,
          max_inflight=args.max_inflight, dse_workers=args.dse_workers,
          workers=args.workers, peers=peers, cache_dir=args.cache_dir,
          cache_bytes=args.cache_mb * 1024 * 1024,
          request_timeout=args.request_timeout or None,
          queue_depth=args.queue_depth if args.queue_depth > 0 else None,
          fault_plan=args.fault_plan,
          trace_sample=args.trace_sample,
          slow_request_ms=args.slow_request_ms or None,
          max_sessions=args.max_sessions,
          session_ttl=args.session_ttl)
    return 0


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

_SESSION_HELP = """\
commands:
  edit START END [TEXT]   replace character range [START, END) with TEXT
  line N [TEXT]           replace the contents of line N with TEXT
  show                    print the current document with line numbers
  help                    this message
  quit                    close the session and exit
TEXT is the rest of the line; \\n and \\t escape sequences are expanded."""


def _decode_repl_text(raw: str) -> str:
    return raw.replace("\\n", "\n").replace("\\t", "\t")


def _print_session_payload(payload: dict, as_json: bool,
                           file_label: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    check = payload.get("check") or {}
    version = payload.get("version")
    segments = (f"{payload.get('reparsed')}/{payload.get('segments')} "
                f"segments reparsed, {payload.get('reused', 0)} reused")
    if check.get("ok"):
        print(f"v{version}: "
              + _check_ok_line(file_label, check["memories"],
                               check["max_replication"])
              + f" [{segments}]")
        return
    print(f"v{version}: {file_label}: ERROR [{segments}]")
    diagnostics = payload.get("diagnostics") or []
    if not diagnostics and check.get("diagnostic"):
        diagnostics = [check["diagnostic"]]
    for diagnostic in diagnostics:
        rendered = diagnostic.get("rendered") or diagnostic.get("message")
        print(f"  {rendered}")
    stale = payload.get("stale")
    if stale:
        broken = ", ".join(stale.get("broken", []))
        print(f"  serving last clean verdict from v{stale['version']} "
              f"(broken: {broken})")


def _session_backends(args: argparse.Namespace):
    """``(open, edit, close)`` closures, each → ``(status, payload)``."""
    if getattr(args, "server", None):
        from .service.client import ServiceClient, ServiceError

        client = ServiceClient.from_address(args.server)

        def guard(call):
            try:
                return 200, call()
            except ServiceError as error:
                return error.status, error.payload

        return (
            lambda source: guard(
                lambda: client.session_open(source, session=args.id)),
            lambda session, version, edits: guard(
                lambda: client.session_edit(session, version, edits=edits)),
            lambda session: guard(lambda: client.session_close(session)),
        )

    from .service.pipeline import CompilerPipeline
    from .service.session import SessionManager
    from .util import telemetry

    manager = SessionManager(CompilerPipeline(capacity=256))

    def do_open(source: str):
        request = {"source": source}
        if args.id:
            request["session"] = args.id
        return manager.open(request, telemetry.new_id())

    return (
        do_open,
        lambda session, version, edits: manager.edit(
            session, {"version": version, "edits": edits},
            telemetry.new_id()),
        manager.close,
    )


def _parse_repl_edit(command: str, rest: str,
                     current: str) -> list[dict] | None:
    """One REPL line → an edit list, or ``None`` with usage on stderr."""
    if command == "edit":
        head = rest.split(None, 2)
        if len(head) < 2:
            print("usage: edit START END [TEXT]", file=sys.stderr)
            return None
        try:
            start, end = int(head[0]), int(head[1])
        except ValueError:
            print("usage: edit START END [TEXT]", file=sys.stderr)
            return None
        text = _decode_repl_text(head[2]) if len(head) > 2 else ""
        return [{"start": start, "end": end, "text": text}]
    head = rest.split(None, 1)
    if not head:
        print("usage: line N [TEXT]", file=sys.stderr)
        return None
    try:
        number = int(head[0])
    except ValueError:
        print("usage: line N [TEXT]", file=sys.stderr)
        return None
    lines = current.splitlines(keepends=True)
    if not 1 <= number <= len(lines):
        print(f"line {number} out of range (document has {len(lines)})",
              file=sys.stderr)
        return None
    start = sum(len(line) for line in lines[:number - 1])
    old = lines[number - 1]
    end = start + len(old) - (1 if old.endswith("\n") else 0)
    text = _decode_repl_text(head[1]) if len(head) > 1 else ""
    return [{"start": start, "end": end, "text": text}]


def cmd_session(args: argparse.Namespace) -> int:
    """REPL over a stateful edit session (local or ``--server``)."""
    text, _ = _load(args.file)
    do_open, do_edit, do_close = _session_backends(args)

    try:
        status, payload = do_open(text)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if status != 200:
        print(f"error: {payload.get('error')}", file=sys.stderr)
        return 1
    session, version = payload["session"], payload["version"]
    current = text
    _print_session_payload(payload, args.json, args.file)

    interactive = sys.stdin.isatty()
    if interactive:
        print(f"session {session} open; type 'help' for commands")
    while True:
        if interactive:
            print(f"v{version}> ", end="", flush=True)
        raw = sys.stdin.readline()
        if not raw:
            break
        line = raw.strip()
        if not line:
            continue
        command, _, rest = line.partition(" ")
        if command in ("quit", "exit"):
            break
        if command == "help":
            print(_SESSION_HELP)
            continue
        if command == "show":
            for number, content in enumerate(current.splitlines(), 1):
                print(f"{number:4d}  {content}")
            continue
        if command not in ("edit", "line"):
            print(f"unknown command {command!r} (try 'help')",
                  file=sys.stderr)
            continue
        edits = _parse_repl_edit(command, rest.strip(), current)
        if edits is None:
            continue
        try:
            status, payload = do_edit(session, version + 1, edits)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            continue
        if status != 200:
            print(f"error: {payload.get('error')}", file=sys.stderr)
            if payload.get("stale_version"):
                version = payload["expected"] - 1
            continue
        version = payload["version"]
        for edit in edits:
            current = (current[:edit["start"]] + edit["text"]
                       + current[edit["end"]:])
        _print_session_payload(payload, args.json, args.file)
    with contextlib.suppress(OSError):
        do_close(session)
    return 0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace(args: argparse.Namespace) -> int:
    """Fetch request traces from a running service."""
    from .service.client import ServiceClient, ServiceError

    if args.chrome and args.id is None:
        print("--chrome needs --id: the Chrome export is per-trace",
              file=sys.stderr)
        return 1
    try:
        client = ServiceClient.from_address(args.server)
        payload = client.trace(args.id, limit=args.limit,
                               format="chrome" if args.chrome else None)
    except (ServiceError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.id is None:
        for summary in payload.get("traces", []):
            print(f"{summary['trace_id']}  {summary['duration_ms']:9.2f} ms"
                  f"  {summary['spans']:3d} spans  {summary['name']}")
        return 0
    body = payload if args.chrome else payload["trace"]
    text = json.dumps(body, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``dahlia-py`` argument parser.

    Exposed separately from :func:`main` so tooling (and the
    compile-checked docs suite) can validate documented command lines
    against the real flag surface.
    """
    parser = argparse.ArgumentParser(
        prog="dahlia-py",
        description="Dahlia (PLDI 2020) reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags: every file-taking subcommand gets --json
    # diagnostics; the service-capable ones also get --server.
    diagnosable = argparse.ArgumentParser(add_help=False)
    diagnosable.add_argument("file")
    diagnosable.add_argument("--json", action="store_true",
                             help="machine-readable JSON diagnostics "
                                  "on stderr")
    servable = argparse.ArgumentParser(add_help=False)
    servable.add_argument("--server", metavar="HOST:PORT",
                          help="dispatch to a running dahlia-py service")

    check = sub.add_parser("check", parents=[diagnosable, servable],
                           help="type-check a Dahlia program")
    check.set_defaults(func=cmd_check)

    compile_ = sub.add_parser("compile", parents=[diagnosable, servable],
                              help="emit Vivado HLS C++")
    compile_.add_argument("--erase", action="store_true",
                          help="plain C++ without pragmas (Fig. 1 erasure)")
    compile_.add_argument("--kernel-name", default="kernel")
    compile_.set_defaults(func=cmd_compile)

    run = sub.add_parser("run", parents=[diagnosable, servable],
                         help="interpret a Dahlia program")
    run.add_argument("--no-check", action="store_true",
                     help="skip the type checker (checked semantics still "
                          "catches conflicts at runtime)")
    run.set_defaults(func=cmd_run)

    estimate_ = sub.add_parser("estimate", parents=[diagnosable, servable],
                               help="run the HLS estimator on a program")
    estimate_.set_defaults(func=cmd_estimate)

    bench = sub.add_parser("bench", help="list MachSuite ports")
    bench.set_defaults(func=cmd_bench)

    fmt = sub.add_parser("fmt", parents=[diagnosable],
                         help="pretty-print a program")
    fmt.set_defaults(func=cmd_fmt)

    analyze = sub.add_parser(
        "analyze", parents=[diagnosable],
        help="wires-vs-registers and time-step report (§3.2)")
    analyze.set_defaults(func=cmd_analyze)

    fuse = sub.add_parser(
        "fuse", parents=[diagnosable],
        help="merge unneeded logical time steps (§3.2)")
    fuse.set_defaults(func=cmd_fuse)

    desugar_ = sub.add_parser(
        "desugar", parents=[diagnosable],
        help="show the Filament core program (§4.5)")
    desugar_.set_defaults(func=cmd_desugar)

    rtl = sub.add_parser(
        "rtl", parents=[diagnosable],
        help="emit Verilog via the direct RTL backend (§6)")
    rtl.add_argument("--module-name", default="main")
    rtl.add_argument("--report", action="store_true",
                     help="print netlist statistics and simulated cycle "
                          "count instead of Verilog")
    rtl.set_defaults(func=cmd_rtl)

    pipeline = sub.add_parser(
        "pipeline", parents=[diagnosable],
        help="initiation-interval report per loop (§6)")
    pipeline.set_defaults(func=cmd_pipeline)

    dse = sub.add_parser(
        "dse", parents=[servable],
        help="design-space sweep via the high-throughput engine")
    dse.add_argument("space", choices=tuple(DSE_FAMILIES),
                     help="design-space family to sweep")
    dse.add_argument("--sample", type=int, default=500,
                     help="strided subsample size (0 = full space)")
    dse.add_argument("--sample-seed", type=int, default=None,
                     help="seed a random subsample instead of the "
                          "default strided one (reproducible per seed)")
    dse.add_argument("--mode", choices=("exhaustive", "frontier"),
                     default="exhaustive",
                     help="exhaustive sweep (default) or adaptive "
                          "frontier-guided search")
    dse.add_argument("--budget", type=int, default=None,
                     help="frontier mode: cap on full evaluations "
                          "(default: run to convergence)")
    dse.add_argument("--stream", action="store_true",
                     help="frontier mode: print frontier-update JSON "
                          "lines as the skyline advances")
    dse.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: $REPRO_WORKERS "
                          "or CPU count)")
    dse.add_argument("--no-memoize", action="store_true",
                     help="disable acceptance memoization")
    dse.add_argument("--json", action="store_true",
                     help="print a JSON summary")
    dse.set_defaults(func=cmd_dse)

    cache = sub.add_parser(
        "cache", help="artifact-cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prewarm = cache_sub.add_parser(
        "prewarm",
        help="walk a corpus and warm the persistent artifact tier "
             "ahead of traffic")
    prewarm.add_argument("--family", action="append",
                         choices=tuple(DSE_FAMILIES), metavar="NAME",
                         help="also walk sampled configurations of this "
                              "DSE family (repeatable)")
    prewarm.add_argument("--sample", type=int, default=24,
                         help="configurations sampled per family "
                              "(0 = the full space)")
    prewarm.add_argument("--no-corpus", action="store_true",
                         help="skip the labeled typing-rule corpus")
    prewarm.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent artifact tier directory "
                              "(default: $REPRO_CACHE_DIR)")
    prewarm.add_argument("--cache-mb", type=int, default=256,
                         help="size cap for the disk tier in MiB")
    prewarm.add_argument("--json", action="store_true",
                         help="print a JSON summary")
    prewarm.add_argument("--trace-out", default=None, metavar="FILE",
                         help="trace the warm pass and write Chrome "
                              "trace-event JSON to FILE (load in "
                              "Perfetto or chrome://tracing)")
    prewarm.set_defaults(func=cmd_cache_prewarm)

    serve = sub.add_parser(
        "serve", help="start the compiler service (JSON over HTTP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--capacity", type=int, default=512,
                       help="artifact-cache capacity (stage results)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="bound on concurrently served requests")
    serve.add_argument("--dse-workers", type=int, default=1,
                       help="default worker count for /dse sweeps")
    serve.add_argument("--workers", type=int, default=1,
                       help="serving processes (prefork pool sharing "
                            "the port and the disk cache tier)")
    serve.add_argument("--peers", default=None, metavar="HOST:PORT,...",
                       help="comma-separated addresses of peer nodes "
                            "whose CAS (/cas/{digest}) backs this "
                            "node's artifact store as a remote tier")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent artifact tier directory "
                            "(default: $REPRO_CACHE_DIR, else the "
                            "cache is memory-only)")
    serve.add_argument("--cache-mb", type=int, default=256,
                       help="size cap for the disk tier in MiB")
    serve.add_argument("--request-timeout", type=float, default=0.0,
                       metavar="SECONDS",
                       help="per-request deadline budget; requests over "
                            "budget return a structured 503 (/dse gets "
                            "a proportionally larger budget; 0 disables)")
    serve.add_argument("--queue-depth", type=int, default=0,
                       help="bound on requests queued behind the "
                            "in-flight limit; excess requests are shed "
                            "with 429 + Retry-After (0 = unbounded)")
    serve.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="JSON fault-injection plan installed in "
                            "every serving process (chaos drills)")
    serve.add_argument("--trace-sample", type=float, default=None,
                       metavar="RATE",
                       help="fraction of POST requests traced "
                            "(default: $REPRO_TRACE_SAMPLE or 1.0)")
    serve.add_argument("--slow-request-ms", type=float, default=0.0,
                       metavar="MS",
                       help="log a warning for requests slower than "
                            "this threshold (0 disables)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="bound on concurrently open edit sessions "
                            "per worker (LRU-evicted beyond this)")
    serve.add_argument("--session-ttl", type=float, default=900.0,
                       metavar="SECONDS",
                       help="idle lifetime of an edit session before "
                            "it is expired")
    serve.set_defaults(func=cmd_serve)

    session = sub.add_parser(
        "session", parents=[diagnosable, servable],
        help="interactive incremental edit session over a file")
    session.add_argument("--id", default=None, metavar="NAME",
                         help="session id (default: minted; letters, "
                              "digits, '._-', at most 64 chars)")
    session.set_defaults(func=cmd_session)

    trace = sub.add_parser(
        "trace", help="fetch request traces from a running service")
    trace.add_argument("--server", metavar="HOST:PORT", required=True,
                       help="address of a running dahlia-py service")
    trace.add_argument("--id", default=None, metavar="TRACE_ID",
                       help="fetch one trace by id (default: list "
                            "recent trace summaries)")
    trace.add_argument("--limit", type=int, default=None,
                       help="number of summaries to list (default 20)")
    trace.add_argument("--chrome", action="store_true",
                       help="emit Chrome trace-event JSON (load in "
                            "Perfetto or chrome://tracing); needs --id")
    trace.add_argument("--output", default=None, metavar="FILE",
                       help="write the trace JSON to a file instead "
                            "of stdout")
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
