"""The long-running CA-action resolution server.

:class:`ResolutionServer` turns the repo's protocol engines into a
persistent network service on the :class:`~repro.rt.kernel.AsyncioKernel`:
clients open TCP sessions, submit action requests as length-prefixed JSON
frames (:mod:`repro.service.protocol`), and receive resolution outcomes
asynchronously — many in-flight actions multiplexed on one kernel.

Load discipline (the part the paper's batch campaigns never needed):

* **Bounded admission queue** — accepted requests wait in a FIFO of
  ``queue_limit`` slots shared by every session; worker coroutines drain
  it.  The queue *is* the in-flight buffer: its depth is the live signal
  of how far offered load exceeds service capacity.
* **AIMD token bucket** — admission is additionally rate-limited by
  :class:`TokenBucket`, which starts at its ceiling (``max_rate``, a hard
  cap), so a fresh server serves at capacity from its first request.  The
  rate is cut when the queue crowds past its high watermark and grows
  back while the queue stays shallow.
* **Load shedding** — a request that finds the server stopping, the
  queue full or the bucket empty (checked in that order, so a queue-full
  shed spends no token) is answered at once with an ``overloaded`` frame
  naming that ``reason``, never silently dropped, so open-loop clients
  can distinguish goodput from shed work and back off.  Under overload
  the server keeps completing admitted work at capacity: goodput
  degrades to the service rate, not to zero.

Observability: a per-server :class:`~repro.obs.metrics.MetricsRegistry`
(counters for submitted/accepted/shed/completed and ``service.shed.<reason>``,
wall-clock latency and per-stage breakdown histograms, queue/rate gauges)
served live over the same frame protocol by ``stats`` requests, as JSON or
rendered text.

Tracing: every request is one :class:`~repro.service.flight.RequestRecord`
(the instants it reached, and what ran) in an always-on
:class:`~repro.service.flight.FlightRecorder`.  The stage histograms are
read off a record when it finishes; its span tree only when read — by a
dump (shed, p99-budget breach, stalled request, protocol error) or for
the ``outcome`` frame of a client that sent ``trace_id``/``parent_span``
header fields.  ``trace: true`` additionally runs the engine at FULL and
nests the protocol-level span forest under the execute span.
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path
from typing import Optional

from repro.obs.export import metrics_to_text
from repro.obs.metrics import (
    MS_LATENCY_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
)
from repro.obs.spans import TraceContext
from repro.rt.kernel import AsyncioKernel
from repro.rt.tcp import MAX_FRAME, FrameError, encode_frame, read_frame
from repro.service.flight import FlightRecorder, RequestRecord, request_spans
from repro.service.protocol import (
    ActionRequest,
    ServiceProtocolError,
    execute_request,
    execute_request_traced,
    rescale_records,
)

#: Action-size buckets (participants per action) for the mix histogram.
N_BUCKETS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0)

#: The histograms a finished request's record feeds, each with the two
#: instants it measures between: 0 admitted, 1 dequeued, 2 executed,
#: 3 serialized, 4 replied.
STAGE_HISTOGRAMS = (
    ("service.latency_ms", 0, 3),
    ("service.queue_wait_ms", 0, 1),
    ("service.execute_ms", 1, 2),
    ("service.serialize_ms", 2, 3),
    ("service.reply_ms", 3, 4),
)

#: AIMD factors of :meth:`TokenBucket.adjust`: the rate grows by
#: ``GROWTH`` on a shallow-queue tick and is cut by ``BACKOFF`` on a
#: crowded one.
GROWTH = 1.5
BACKOFF = 0.7

#: Wall seconds between the server's AIMD control ticks (its pacer).
PACER_INTERVAL = 0.25


class TokenBucket:
    """Admission rate limiter with AIMD adaptation.

    Tokens refill continuously at ``rate`` per second up to one second's
    worth (``burst``).  A new bucket starts at ``max_rate`` and full.
    :meth:`adjust` implements the control loop: cut the rate by
    ``BACKOFF`` when the queue crowds, grow it back by ``GROWTH`` while
    the queue is shallow — see the module docstring.
    """

    def __init__(self, max_rate: float = 20_000.0, min_rate: float = 50.0) -> None:
        if not 0 < min_rate <= max_rate:
            raise ValueError(f"need 0 < min_rate <= max_rate, got {min_rate}/{max_rate}")
        self.rate = max_rate
        self.max_rate = max_rate
        self.min_rate = min_rate
        # One second of burst; the first refill caps it at the rate.
        self._tokens = max_rate
        self._last = 0.0

    def _refill(self, now: float) -> None:
        self._tokens = min(
            self.rate, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_take(self, now: float) -> bool:
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def adjust(self, queue_occupancy: float) -> None:
        """One control tick: multiplicative cut on crowding, growth when shallow."""
        if queue_occupancy > 0.75:
            self.rate = max(self.min_rate, self.rate * BACKOFF)
        elif queue_occupancy < 0.25:
            self.rate = min(self.max_rate, self.rate * GROWTH)


class ResolutionServer:
    """Serve CA-action resolution over localhost TCP (see module docstring).

    Args:
        host, port: listen address (``port=0`` picks a free port, readable
            from ``self.port`` once ``ready`` is set).
        workers: concurrent queue-drainer coroutines.  Engine runs are
            synchronous CPU work, so workers add *multiplexing* across
            sessions (and overlap with socket I/O), not parallelism.
        queue_limit: admission queue slots (the in-flight bound).
        max_rate / min_rate: token-bucket parameters (it starts at
            ``max_rate``); the AIMD control ticks every ``PACER_INTERVAL``.
        max_frame: per-frame byte ceiling (protocol hardening).
        flight_dir: directory for flight-recorder dumps (``None`` keeps
            the ring in memory but writes no artifacts).
        flight_capacity: completed request traces retained in the ring.
        stall_after: wall seconds before an open request trace counts as
            stalled (fires the ``stall`` trigger).
        p99_budget_ms: rolling per-pacer-tick p99 latency budget; a tick
            whose completed-request p99 exceeds it fires ``p99-breach``
            (``None`` disables the check).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 2048,
        max_rate: float = 20_000.0,
        min_rate: float = 50.0,
        max_frame: int = MAX_FRAME,
        flight_dir: Optional[Path] = None,
        flight_capacity: int = 256,
        stall_after: float = 30.0,
        p99_budget_ms: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"need a positive queue limit, got {queue_limit}")
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.queue_limit = queue_limit
        self.p99_budget_ms = p99_budget_ms
        self.bucket = TokenBucket(max_rate=max_rate, min_rate=min_rate)
        # time_scale=1.0: one virtual unit == one wall second, so
        # ``run(until=max_seconds)`` and pacer arithmetic read naturally.
        self.kernel = AsyncioKernel(time_scale=1.0)
        self.metrics = MetricsRegistry()
        self._stage_histograms = [
            (self.metrics.histogram(name, MS_LATENCY_BUCKETS), first, last)
            for name, first, last in STAGE_HISTOGRAMS
        ]
        self.flight = FlightRecorder(
            capacity=flight_capacity, dump_dir=flight_dir,
            stall_after=stall_after,
        )
        self._p99_prev_buckets: Optional[list[int]] = None
        self.ready = asyncio.Event()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: set[asyncio.Task] = set()
        self._stopping = False
        self._started_wall: Optional[float] = None
        self.kernel.add_service(self._serve)
        self.kernel.add_service(self._pacer)
        for _ in range(workers):
            self.kernel.add_service(self._worker)

    # -- lifecycle ---------------------------------------------------------------

    def serve_forever(self, max_seconds: Optional[float] = None) -> None:
        """Run until :meth:`stop` (or ``max_seconds`` of wall time).

        Blocks the calling thread.  The kernel would otherwise consider an
        idle server quiescent, so the server holds one lifetime token for
        the duration.
        """
        self.kernel.hold()
        try:
            self.kernel.run(until=max_seconds)
        finally:
            # Released unless stop() already did (idempotent bookkeeping).
            if not self._stopping:
                self._stopping = True
                with contextlib.suppress(Exception):
                    self.kernel.release()

    def stop(self) -> None:
        """Stop from inside the loop: no new work, release the lifetime hold."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
        self.kernel.release()

    def request_stop(self) -> None:
        """Thread-safe stop for embedding hosts (tests, benchmarks)."""
        self.kernel.loop.call_soon_threadsafe(self.stop)

    def close(self) -> None:
        self.kernel.close()

    # -- the listener service ----------------------------------------------------

    async def _serve(self) -> None:
        self._started_wall = self.kernel.loop.time()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port
            )
        except OSError as exc:
            # Bind/listen failure: a service-task exception would die
            # silently; fail() re-raises it from serve_forever() instead.
            self.kernel.fail(exc)
            return
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            raise
        finally:
            sessions = [t for t in self._sessions if not t.done()]
            for task in sessions:
                task.cancel()
            if sessions:
                with contextlib.suppress(Exception):
                    await asyncio.gather(*sessions, return_exceptions=True)
            self._sessions.clear()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._sessions.add(task)
        self.metrics.counter("service.sessions_opened").inc()
        try:
            await self._session(reader, writer)
        except asyncio.CancelledError:
            # Server stopping.  Exit normally rather than re-raise: the
            # asyncio streams machinery calls ``task.exception()`` on this
            # task from a plain callback and would log a spurious
            # ``CancelledError`` per open session otherwise.
            pass
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            # Peer vanished, possibly mid-frame — or mid-reply: a worker's
            # write to it failed with EPIPE and this session's drain() saw it.
            pass
        except Exception as exc:  # noqa: BLE001 — surface through run()
            self.kernel.fail(exc)
        finally:
            if task is not None:
                self._sessions.discard(task)
            self.metrics.counter("service.sessions_closed").inc()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                header, _ = await read_frame(reader, self.max_frame)
            except FrameError as exc:
                # A misbehaving client gets a clean protocol error and its
                # session closed; the server (and every other session)
                # keeps running.
                self.metrics.counter("service.protocol_errors").inc()
                self.flight.trigger(
                    "protocol-error", self.kernel.loop.time(), detail=str(exc)
                )
                self._reply(writer, {"type": "error", "reason": str(exc)})
                with contextlib.suppress(Exception):
                    await writer.drain()
                return
            kind = header.get("type")
            if kind == "submit":
                self._on_submit(header, writer)
            elif kind == "stats":
                self._on_stats(header, writer)
            elif kind == "ping":
                self._reply(writer, {"type": "pong"})
            elif kind == "shutdown":
                self._reply(writer, {"type": "bye"})
                with contextlib.suppress(Exception):
                    await writer.drain()
                self.stop()
                return
            else:
                self.metrics.counter("service.protocol_errors").inc()
                self._reply(
                    writer,
                    {"type": "error", "reason": f"unknown frame type {kind!r}"},
                )
            await writer.drain()

    # -- request handling ----------------------------------------------------------

    def _reply(self, writer: asyncio.StreamWriter, header: dict) -> None:
        if not writer.is_closing():
            writer.write(encode_frame(header))

    def _on_submit(self, header: dict, writer: asyncio.StreamWriter) -> None:
        metrics = self.metrics
        metrics.counter("service.submitted").inc()
        try:
            request = ActionRequest.from_header(header)
        except ServiceProtocolError as exc:
            metrics.counter("service.rejected").inc()
            self._reply(
                writer,
                {"type": "error", "id": header.get("id"), "reason": str(exc)},
            )
            return
        now = self.kernel.loop.time()
        # Missing/malformed context parses to None → fresh root trace;
        # tracing never turns a request into a protocol error.
        context = TraceContext.from_header(header)
        record = self.flight.start(now, request_id=request.id, context=context)
        reason = None
        if self._stopping:
            reason = "stopping"
        elif self._queue.full():
            reason = "queue-full"
        elif not self.bucket.try_take(now):
            reason = "rate"
        if reason is not None:
            metrics.counter("service.shed").inc()
            metrics.counter(f"service.shed.{reason}").inc()
            self.flight.finish(record, self.kernel.loop.time(), "shed")
            self.flight.trigger("shed", now, detail=f"request {request.id}: {reason}")
            reply = {
                "type": "overloaded",
                "id": request.id,
                "reason": reason,
                "queue": self._queue.qsize(),
                "rate": round(self.bucket.rate, 1),
            }
            if context is not None:
                reply["trace_id"] = record.trace_id
            self._reply(writer, reply)
            return
        metrics.counter("service.accepted").inc()
        record.queue_depth = self._queue.qsize()
        self._queue.put_nowait((request, writer, record, context))

    def _finish(self, record: RequestRecord, now: float, status: str) -> None:
        """Close a queued request's record; the stage histograms read its instants."""
        self.flight.finish(record, now, status)
        instants = record.instants
        reached = len(instants)
        for histogram, first, last in self._stage_histograms:
            if last < reached:
                histogram.observe((instants[last] - instants[first]) * 1000.0)

    async def _worker(self) -> None:
        metrics = self.metrics
        loop = self.kernel.loop
        sizes = metrics.histogram("service.action_n", N_BUCKETS)
        while True:
            request, writer, record, context = await self._queue.get()
            instants = record.instants
            dequeued = loop.time()
            instants.append(dequeued)
            record.execute = {"variant": request.variant, "n": request.n,
                              "p": request.p, "q": request.q}
            try:
                if request.trace:
                    outcome, engine_records = execute_request_traced(request)
                else:
                    outcome, engine_records = execute_request(request), None
            except Exception as exc:  # noqa: BLE001 — engine bug: report, survive
                metrics.counter("service.engine_errors").inc()
                self._finish(record, loop.time(), "error")
                self._reply(
                    writer,
                    {
                        "type": "error", "id": request.id,
                        "reason": f"{type(exc).__name__}: {exc}",
                    },
                )
                continue
            executed = loop.time()
            instants.append(executed)
            record.execute["status"] = outcome.status
            if engine_records is not None:
                # Nest the engine's virtual-time forest inside the
                # wall-clock execute window.
                record.engine = rescale_records(
                    engine_records, dequeued, executed,
                    max(outcome.sim_duration, 1e-9),
                )
            reply = outcome.to_header()
            instants.append(loop.time())
            if context is not None:
                # The client is tracing: echo the trace id and ship the
                # server-side span records so it can graft them into one
                # connected forest.
                reply["trace_id"] = record.trace_id
                reply["spans"] = request_spans(record, shipped=True).to_records()

            metrics.counter("service.completed").inc()
            metrics.counter(f"service.completed.{request.variant}").inc()
            sizes.observe(request.n)
            metrics.histogram("service.sim_duration").observe(
                outcome.sim_duration
            )
            self._reply(writer, reply)
            if not writer.is_closing():
                with contextlib.suppress(
                    ConnectionResetError, BrokenPipeError
                ):
                    await writer.drain()
            self._finish(record, loop.time(), outcome.status)
            # One engine run is a synchronous burst; yield so session
            # readers interleave even when the queue never empties.
            await asyncio.sleep(0)

    # -- control loop & stats --------------------------------------------------------

    async def _pacer(self) -> None:
        while True:
            await asyncio.sleep(PACER_INTERVAL)
            now = self.kernel.loop.time()
            self.bucket.adjust(self._queue.qsize() / self.queue_limit)
            gauges = self.metrics
            gauges.gauge("service.queue_depth").set(self._queue.qsize())
            gauges.gauge("service.admit_rate").set(self.bucket.rate)
            self.flight.check_stalls(now)
            self._check_p99_budget(now)

    def _check_p99_budget(self, now: float) -> None:
        """Fire ``p99-breach`` when this tick's completed-request p99
        exceeds the budget (estimated from the latency histogram's bucket
        deltas since the previous tick — no per-request storage)."""
        if self.p99_budget_ms is None:
            return
        hist = self.metrics.histogram("service.latency_ms", MS_LATENCY_BUCKETS)
        buckets = list(hist.bucket_counts)
        prev, self._p99_prev_buckets = self._p99_prev_buckets, buckets
        if prev is None:
            return
        delta = [b - p for b, p in zip(buckets, prev)]
        count = sum(delta)
        if not count:
            return
        estimate = histogram_quantile(
            {
                "bounds": list(hist.bounds), "bucket_counts": delta,
                "count": count, "min": None, "max": hist.max,
            },
            0.99,
        )
        if estimate is not None and estimate > self.p99_budget_ms:
            self.metrics.counter("service.p99_breaches").inc()
            self.flight.trigger(
                "p99-breach", now,
                detail=f"p99≈{estimate:g}ms > budget {self.p99_budget_ms:g}ms",
            )

    def stats_snapshot(self) -> dict:
        """The live registry snapshot, gauges refreshed at call time."""
        metrics = self.metrics
        metrics.gauge("service.queue_depth").set(self._queue.qsize())
        metrics.gauge("service.admit_rate").set(self.bucket.rate)
        if self._started_wall is not None:
            metrics.gauge("service.uptime_seconds").set(
                self.kernel.loop.time() - self._started_wall
            )
        flight = self.flight
        for reason, count in flight.trigger_counts.items():
            metrics.counter(f"service.flight.trigger.{reason}").value = count
        metrics.counter("service.flight.dumps").value = len(flight.dumps)
        metrics.counter("service.flight.suppressed").value = flight.suppressed
        metrics.gauge("service.flight.open_traces").set(
            len(flight.open_traces())
        )
        metrics.gauge("service.flight.completed_traces").set(
            len(flight.completed_traces())
        )
        return metrics.snapshot()

    def _on_stats(self, header: dict, writer: asyncio.StreamWriter) -> None:
        snapshot = self.stats_snapshot()
        if header.get("format") == "text":
            self._reply(
                writer, {"type": "stats", "text": metrics_to_text(snapshot)}
            )
        else:
            self._reply(writer, {"type": "stats", "snapshot": snapshot})
