"""The compiler service's HTTP transport: framing, admission, deadlines.

A deliberately small HTTP/1.1 subset (request line, headers,
``Content-Length`` bodies, keep-alive, chunked NDJSON streams) on
``asyncio.start_server`` — no third-party dependency. Requests execute
on a thread pool behind an ``asyncio.Semaphore``, so concurrency is
bounded and a slow ``/dse`` sweep cannot starve the accept loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from ..util import telemetry
from ..util.deadline import Deadline, DeadlineExceeded, deadline_scope
from ..util.faults import fault_stats
from .server import (
    BadRequest,
    Call,
    DahliaService,
    RawPayload,
    encode_payload,
)

#: Seconds between idle stats publications from each worker.
HEARTBEAT_S = 2.0

#: Extra seconds past a request's budget before the transport stops
#: waiting for the handler thread and answers 503 itself. Cooperative
#: cancellation (stage-boundary checks) normally fires first; the
#: backstop covers handlers stuck in non-cooperative code.
DEADLINE_GRACE_S = 0.25

#: ``/dse`` runs engine sweeps that are long by design; its budget is
#: the per-route timeout scaled by this factor.
DSE_BUDGET_FACTOR = 20.0

#: Advisory client delay for shed (429) responses.
RETRY_AFTER_S = 1.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Reject bodies larger than this (defense against unbounded buffering).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reject header blocks larger than this, counting names and values —
#: the body bound alone would leave the header loop unbounded.
MAX_HEADER_BYTES = 64 * 1024

#: After an early 400, read and discard at most this much unread input,
#: for at most this long, before closing (see :func:`_linger`).
LINGER_MAX_BYTES = 1024 * 1024
LINGER_MAX_S = 2.0


def _head(status: int, keep_alive: bool,
          headers: Mapping[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
             *(f"{name}: {value}" for name, value in headers.items()),
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _response_bytes(status: int, payload: Any, keep_alive: bool,
                    headers: Mapping[str, str]) -> bytes:
    """One buffered response: JSON, or a ``RawPayload`` verbatim (the
    ``/cas`` blob exchange)."""
    raw = isinstance(payload, RawPayload)
    body = payload.body if raw else encode_payload(payload)
    return _head(status, keep_alive, {
        "Content-Type": payload.content_type if raw else "application/json",
        "Content-Length": str(len(body)), **headers,
        **((payload.headers or {}) if raw else {})}) + body


def _within_budget(budget: float | None, run: Any, *args: Any) -> Any:
    """Executor entry: arm the cooperative token, then run."""
    if budget is None:
        return run(*args)
    with deadline_scope(Deadline(budget)):
        return run(*args)


async def _linger(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """Half-close, then drain unread input before the connection closes.

    A request rejected before it was fully read leaves the client's
    remaining bytes unread. Closing a socket with unread input makes
    the kernel send an RST, which can overtake the 400 still in flight
    and reach a client that is still sending as ``BrokenPipeError`` or
    ``ConnectionResetError`` instead of the response. Sending FIN first
    and reading until the client's EOF (bounded in bytes and time)
    lets the response arrive intact.
    """
    if writer.can_write_eof():
        writer.write_eof()
    drained = 0
    with contextlib.suppress(TimeoutError):
        async with asyncio.timeout(LINGER_MAX_S):
            while drained < LINGER_MAX_BYTES:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    return
                drained += len(chunk)


async def _read_request(reader: asyncio.StreamReader,
                        ) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on a clean EOF before the first byte."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 3:
        raise BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(header)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest("header block too large")
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise BadRequest("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise BadRequest("unacceptable Content-Length")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class ServiceServer:
    """Asyncio HTTP server around a :class:`DahliaService`.

    Request handlers run on a thread pool (the pipeline is pure Python
    and thread-safe); an ``asyncio.Semaphore`` bounds the number of
    requests in flight.

    **Resilience knobs** (both default off, preserving the historical
    open-ended behavior):

    * ``request_timeout`` — per-request budget in seconds. The budget
      is armed as a cooperative :class:`~repro.util.deadline.Deadline`
      on the handler thread (pipeline stages check it at their
      boundaries) and backstopped by the transport, which answers a
      structured 503 at ``budget + DEADLINE_GRACE_S`` even if the
      handler never cooperates. ``/dse`` gets ``DSE_BUDGET_FACTOR`` ×
      the budget — sweeps are long-running by contract.
    * ``queue_depth`` — admission control: POSTs arriving while all
      in-flight slots are busy wait in a bounded queue; beyond this
      depth they are *shed* with ``429`` + ``Retry-After`` instead of
      queueing without bound.
    """

    def __init__(self, service: DahliaService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8, threads: int | None = None,
                 sock: socket.socket | None = None,
                 request_timeout: float | None = None,
                 queue_depth: int | None = None) -> None:
        self.service = service or DahliaService()
        self.host = host
        self.port = port                      # 0 = ephemeral; set by start
        self.max_inflight = max(1, max_inflight)
        self.request_timeout = (None if not request_timeout
                                else float(request_timeout))
        self.queue_depth = (None if queue_depth is None
                            else max(0, int(queue_depth)))
        self._queued = 0                      # POSTs waiting for a slot
        self._threads = threads or max(2, min(self.max_inflight,
                                              (os.cpu_count() or 1) * 2))
        self._sock = sock                     # pre-bound (prefork workers)
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._heartbeat: asyncio.Task | None = None

    async def start(self) -> None:
        self.service.inflight_limit = self.max_inflight
        faults = fault_stats()
        sample = self.service.trace_sample
        self.service.limits = {
            "request_timeout_s": self.request_timeout,
            "queue_depth": self.queue_depth,
            "fault_plan": faults["plan"] if faults else None,
            "trace_sample": (telemetry.default_sample_rate()
                             if sample is None else sample),
            "slow_request_ms": self.service.slow_request_ms,
        }
        # Spool finished traces for the fleet for this server's
        # lifetime (no-op for unspooled services).
        telemetry.add_exporter(self.service.export_trace)
        self._executor = ThreadPoolExecutor(
            max_workers=self._threads, thread_name_prefix="dahlia-svc")
        self._semaphore = asyncio.Semaphore(self.max_inflight)
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self._sock)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.service.board is not None:
            self.service.publish_stats()      # appear on the board now
            self._heartbeat = asyncio.get_running_loop().create_task(
                self._heartbeat_loop())

    async def _heartbeat_loop(self) -> None:
        """Keep this worker's board entry fresh while idle."""
        while True:
            await asyncio.sleep(HEARTBEAT_S)
            self.service.publish_stats()

    async def stop(self) -> None:
        telemetry.remove_exporter(self.service.export_trace)
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat
            self._heartbeat = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _route_budget(self, call: Call) -> float | None:
        """Seconds of budget for ``call`` (``None`` = no deadline).

        GETs (probes, job tails) run without one.
        """
        if self.request_timeout is None or call.method == "GET":
            return None
        factor = DSE_BUDGET_FACTOR if call.path == "/dse" else 1.0
        return self.request_timeout * factor

    async def _respond(self, loop: asyncio.AbstractEventLoop,
                       call: Call) -> tuple[int, Any]:
        """Run one buffered call, under its route's budget.

        An unboarded GET runs inline on the loop (a boarded one does
        board file I/O, so it takes the executor). A handler stuck past
        its budget in non-cooperative code gets its 503 from here,
        ``DEADLINE_GRACE_S`` later; the orphaned thread's result is
        discarded (stages are pure: the waste is CPU, not state).
        """
        assert self._executor is not None
        if call.method == "GET" and self.service.board is None:
            return self.service.serve(call)
        budget = self._route_budget(call)
        future = loop.run_in_executor(
            self._executor, _within_budget, budget, self.service.serve,
            call)
        if budget is None:
            return await future
        done, _ = await asyncio.wait({future},
                                     timeout=budget + DEADLINE_GRACE_S)
        if done:
            return future.result()
        # Consume the orphan's eventual outcome so an exception in the
        # abandoned thread never surfaces as an unretrieved-future
        # warning.
        future.add_done_callback(
            lambda f: f.cancelled() or f.exception())
        return self.service.error_outcome(DeadlineExceeded(budget))

    async def _stream_events(self, loop: asyncio.AbstractEventLoop,
                             writer: asyncio.StreamWriter, call: Call,
                             keep_alive: bool,
                             response_headers: Mapping[str, str]) -> None:
        """Serve ``call`` through its streaming handler as NDJSON.

        The handler runs on the executor under the route's budget
        (checked every batch, so no transport backstop) and emits
        JSON-ready events (thread → loop via ``call_soon_threadsafe``);
        a sentinel follows its completion. The first event decides the
        wire format: an ``error`` becomes a plain response with its
        real status; anything else opens a chunked 200, one JSON line
        per chunk. Leaving sets ``stop``, so a client disconnect
        releases a job tail instead of following the job for nobody.
        """
        assert self._executor is not None
        queue: asyncio.Queue = asyncio.Queue()
        stop = threading.Event()

        def emit(event: dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        future = loop.run_in_executor(
            self._executor, _within_budget, self._route_budget(call),
            self.service.stream, call, emit, stop)

        def finish(f: Any) -> None:
            # Runs on the loop, after every emit already queued from
            # the handler thread — FIFO makes the sentinel last.
            if not f.cancelled():
                f.exception()      # consume; the service never raises
            queue.put_nowait(None)

        future.add_done_callback(finish)
        try:
            first = await queue.get()
            if first is None or first.get("type") == "error":
                # Failed before any output: the client gets an
                # ordinary response with the real status,
                # byte-identical to the buffered path's error envelope.
                # No event at all means the executor thread itself
                # died (the service never raises): a plain 500.
                status, payload = (
                    (int(first.get("status", 500)), first.get("payload"))
                    if first is not None else self.service.error_outcome(
                        RuntimeError("stream produced no events")))
                writer.write(_response_bytes(status, payload, keep_alive,
                                             response_headers))
                await writer.drain()
                while first is not None and await queue.get() is not None:
                    pass
                return
            writer.write(_head(200, keep_alive, {
                "Content-Type": "application/x-ndjson",
                "Transfer-Encoding": "chunked", **response_headers}))
            event: dict | None = first
            while event is not None:
                line = (json.dumps(event) + "\n").encode()
                writer.write(f"{len(line):X}\r\n".encode() + line + b"\r\n")
                await writer.drain()
                event = await queue.get()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            stop.set()

    async def _answer(self, writer: asyncio.StreamWriter, call: Call,
                      keep_alive: bool) -> None:
        """Admit, run and answer one request. GETs (probes, job tails)
        bypass admission so a fleet busy with sweeps stays observable;
        any other method waits for a slot or is shed past the queue's
        watermark."""
        loop = asyncio.get_running_loop()
        assert self._semaphore and self._executor
        headers: dict[str, str] = {"X-Request-Id": call.request_id}
        admitted = call.method != "GET"
        if (admitted and self.queue_depth is not None
                and self._queued >= self.queue_depth
                and self._semaphore.locked()):
            # Admission control: every slot is busy and the wait queue
            # is at its watermark — shed with 429 rather than queueing
            # without bound.
            self.service.record_shed(call.path)
            headers["Retry-After"] = str(max(1, round(RETRY_AFTER_S)))
            writer.write(_response_bytes(429, {
                "ok": False,
                "error": "server overloaded: request shed by admission "
                         "control",
                "shed": True,
                "retry_after_s": RETRY_AFTER_S,
            }, keep_alive, headers))
            await writer.drain()
            return
        streams = call.streamer() is not None
        if admitted:
            self._queued += 1
            try:
                await self._semaphore.acquire()
            finally:
                self._queued -= 1
        try:
            if streams:
                await self._stream_events(loop, writer, call, keep_alive,
                                          headers)
            else:
                status, payload = await self._respond(loop, call)
        finally:
            if admitted:
                self._semaphore.release()
        if admitted and self.service.board is not None:
            # Publish before responding so a client that saw this
            # response observes it in fleet /metrics — on the
            # executor, so the board's file I/O never stalls the
            # accept loop.
            await loop.run_in_executor(self._executor,
                                       self.service.publish_stats)
        if not streams:
            writer.write(_response_bytes(status, payload, keep_alive,
                                         headers))
            await writer.drain()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (BadRequest, ValueError) as error:
                    # ValueError covers asyncio's LimitOverrunError
                    # when a request or header line exceeds the
                    # StreamReader's 64 KiB limit.
                    writer.write(_response_bytes(
                        400, {"ok": False, "error": str(error)}, False, {}))
                    await writer.drain()
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection",
                                         "").lower() != "close"
                # The client's correlation id (minted when the client
                # sent none) is the trace id for POSTs and is echoed
                # back on every response, so client-side logs join
                # server-side traces.
                request_id = headers.get("x-request-id", "").strip()
                await self._answer(writer,
                                   Call(method, path, body, request_id),
                                   keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass                              # client went away mid-request
        except asyncio.CancelledError:
            # Server shutdown cancels connections parked on a read
            # (keep-alive clients leave one parked per connection).
            # Completing normally here keeps asyncio.streams' task
            # done-callback from re-raising the cancellation into the
            # loop's exception handler on 3.11.
            pass
        finally:
            # CancelledError is a BaseException: a shutdown cancel
            # landing while this drain awaits must not resurrect the
            # cancellation the handler above already absorbed.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()


class BackgroundServer:
    """Run a :class:`ServiceServer` on a daemon thread (tests, benches).

    ::

        with BackgroundServer() as server:
            client = ServiceClient(port=server.port)
    """

    def __init__(self, service: DahliaService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8,
                 request_timeout: float | None = None,
                 queue_depth: int | None = None,
                 threads: int | None = None) -> None:
        self.server = ServiceServer(service, host, port, max_inflight,
                                    request_timeout=request_timeout,
                                    queue_depth=queue_depth,
                                    threads=threads)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._crash_error: BaseException | None = None

    @property
    def service(self) -> DahliaService:
        return self.server.service

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:        # surface bind failures
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        except BaseException as error:        # surface serve-loop crashes
            self._crash_error = error
        finally:
            try:
                loop.run_until_complete(self.server.stop())
                # Idle keep-alive connections leave handler tasks parked
                # on a read; cancel them so the loop closes without
                # warnings.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
            except BaseException as error:
                if self._crash_error is None:
                    self._crash_error = error
            finally:
                loop.close()

    def start(self) -> "BackgroundServer":
        """Start the server thread; raise if it fails to come up.

        A dead thread is an *error*, never a silent 30-second timeout:
        bind failures, import errors, and anything else that kills the
        thread before (or while) serving propagate to the caller.
        """
        self._thread = threading.Thread(target=self._run,
                                        name="dahlia-server", daemon=True)
        self._thread.start()
        ready = self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        if not ready or not self._thread.is_alive():
            self._thread.join(timeout=1)
            raise RuntimeError(
                "server thread died before signalling readiness"
                if not self._thread.is_alive()
                else "server thread failed to become ready within 30s") \
                from self._crash_error
        return self

    def stop(self) -> None:
        """Stop the server thread; raise if it crashed or won't die."""
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():
                raise RuntimeError(
                    "server thread failed to stop within 30s")
        if self._crash_error is not None:
            raise RuntimeError("server thread crashed while serving") \
                from self._crash_error

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        if exc_info and exc_info[0] is not None:
            # The with-body already failed; don't let a teardown error
            # mask the original exception.
            with contextlib.suppress(Exception):
                self.stop()
        else:
            self.stop()
