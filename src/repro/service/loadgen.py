"""Open-loop traffic generator for the resolution service.

Open-loop means arrivals are driven by a clock, not by completions: the
generator keeps submitting at the offered rate even when the server is
slow, so in-flight work grows without bound unless the server sheds —
exactly the regime that distinguishes a service under overload from a
closed batch campaign (which politely waits for every reply).

Arrival processes
    ``poisson`` — exponential inter-arrival times at the offered rate;
    ``bursty``  — an on/off modulated Poisson process: quiet phases at a
    fraction of the rate alternating with bursts at ``burst_factor``×,
    same long-run average.

Action-size mix (heavy-tailed by default)
    Participant counts are sampled from a Pareto tail clipped to
    ``max_n``: most actions are tiny (N=2..4), a few are large — the
    "millions of small users, occasional monster" shape.  Raisers and
    nested members are derived uniformly within the shape constraints.

Each submitted request is stamped with its send time; matching ``outcome``
/ ``overloaded`` replies produce per-request wall latencies, so the
:class:`LoadReport` can state goodput (completed actions/sec), shed rate
and p50/p90/p99 resolution latency.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.variants import VARIANTS
from repro.obs.spans import SpanCollector, TraceContext
from repro.rt.tcp import encode_frame, read_frame
from repro.service.protocol import ActionRequest

ARRIVALS = ("poisson", "bursty")
MIXES = ("heavy", "small", "uniform")

#: Default wall-clock timeout for one control-plane round-trip (stats,
#: shutdown).  A wedged server must produce a clean error, not a hang.
CONTROL_TIMEOUT = 5.0


async def _open_connection(host: str, port: int):
    """Connect to the service, turning raw socket errors into one clean
    :class:`ConnectionError` naming the endpoint — what a CLI can print
    on a single line instead of a traceback."""
    try:
        return await asyncio.open_connection(host, port)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise ConnectionError(
            f"cannot connect to resolution service at {host}:{port}: {reason}"
        ) from None


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop campaign against a running server."""

    rate: float = 500.0  # offered actions/sec (long-run average)
    duration: float = 10.0  # seconds of arrivals
    arrivals: str = "poisson"
    burst_factor: float = 6.0  # bursty: on-phase multiplier
    burst_on: float = 0.5  # seconds per burst phase
    burst_off: float = 1.5  # seconds per quiet phase
    connections: int = 4  # sessions to spread arrivals across
    mix: str = "heavy"
    max_n: int = 32
    variant: str = "base"
    seed: int = 0
    drain_seconds: float = 5.0  # post-arrival wait for straggler replies
    #: Attach distributed-trace context to every request: each submit
    #: carries a fresh trace id + the client root span id, the server's
    #: span records come back on the outcome frame and are grafted under
    #: the client root — one connected forest per request.
    trace: bool = False
    #: When tracing, additionally set ``trace: true`` (engine-level FULL
    #: span forest) on every Nth request per connection; 0 = never.
    engine_trace_every: int = 0

    def __post_init__(self) -> None:
        if self.arrivals not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrivals!r} "
                f"(expected one of {ARRIVALS})"
            )
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown size mix {self.mix!r} (expected one of {MIXES})"
            )
        if self.rate <= 0 or self.duration <= 0 or self.connections < 1:
            raise ValueError(
                f"need positive rate/duration and >=1 connection, got "
                f"rate={self.rate} duration={self.duration} "
                f"connections={self.connections}"
            )


@dataclass
class LoadReport:
    """What one campaign observed (the benchmark's raw material)."""

    spec_rate: float
    duration: float
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    errors: int = 0
    unanswered: int = 0
    max_inflight: int = 0
    wall_seconds: float = 0.0
    latencies_ms: list = field(default_factory=list)
    statuses: dict = field(default_factory=dict)
    server_stats: Optional[dict] = None
    #: Client-side span forest (only when the spec enabled tracing).
    spans: Optional[SpanCollector] = field(default=None, repr=False)
    #: Outcomes whose echoed trace id did not match the request's own —
    #: any nonzero value means the server cross-linked traces.
    trace_mismatches: int = 0

    @property
    def goodput(self) -> float:
        """Completed actions per second of arrival window."""
        return self.completed / self.duration if self.duration else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Latency percentile in ms over completed actions (q in [0, 1])."""
        if not self.latencies_ms:
            return None
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_payload(self) -> dict:
        payload = {
            "offered_rate": self.spec_rate,
            "duration": self.duration,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "unanswered": self.unanswered,
            "goodput": round(self.goodput, 1),
            "max_inflight": self.max_inflight,
            "wall_seconds": round(self.wall_seconds, 3),
            "latency_ms": {
                "p50": self.percentile(0.50),
                "p90": self.percentile(0.90),
                "p99": self.percentile(0.99),
            },
            "statuses": dict(sorted(self.statuses.items())),
        }
        if self.spans is not None:
            payload["traced"] = True
            payload["trace_mismatches"] = self.trace_mismatches
            payload["client_spans"] = len(self.spans)
        return payload


# -- request shapes ---------------------------------------------------------------


def sample_request(rng: random.Random, spec: LoadSpec, req_id: int) -> ActionRequest:
    """One action request drawn from the spec's size mix."""
    if spec.mix == "small":
        n = rng.randint(2, 4)
    elif spec.mix == "uniform":
        n = rng.randint(2, spec.max_n)
    else:  # heavy: Pareto tail, mostly tiny with rare large actions
        n = min(spec.max_n, 1 + int(rng.paretovariate(1.6)))
        n = max(2, n)
    p = rng.randint(1, max(1, (n + 1) // 2))
    # Variants that nest get a sprinkling of nested members.
    q = min(n - p, rng.randint(0, 2)) if VARIANTS[spec.variant].nests else 0
    return ActionRequest(
        id=req_id, variant=spec.variant, n=n, p=p, q=q,
        seed=rng.randrange(1 << 30),
    )


def arrival_times(rng: random.Random, spec: LoadSpec, rate: float) -> list[float]:
    """Relative arrival instants for one connection's share of the load."""
    times: list[float] = []
    t = 0.0
    if spec.arrivals == "poisson":
        while True:
            t += rng.expovariate(rate)
            if t >= spec.duration:
                return times
            times.append(t)
    # bursty: on/off phases; rates chosen so the long-run mean is `rate`.
    cycle = spec.burst_on + spec.burst_off
    on_weight = spec.burst_on * spec.burst_factor
    base_rate = rate * cycle / (on_weight + spec.burst_off)
    while True:
        phase = t % cycle
        current = (
            base_rate * spec.burst_factor if phase < spec.burst_on else base_rate
        )
        t += rng.expovariate(current)
        if t >= spec.duration:
            return times
        times.append(t)


# -- the generator ----------------------------------------------------------------


class _ClientTraces:
    """The client's half of traced requests: a root span and a ``send``
    event per request, joined on reply with the span records the server
    ships back — one connected forest per request."""

    def __init__(self) -> None:
        self.spans = SpanCollector(clock="wall")
        self.mismatches = 0  # replies echoing a trace id not their own
        self._open: dict[int, tuple[int, str]] = {}  # id -> (root span, trace id)

    def send(self, req_id: int, now: float) -> TraceContext:
        """Open a request's root; returns the context to stamp on it."""
        context = TraceContext.new()
        root = self.spans.begin(
            f"request {req_id}", "request", "client", now, trace_id=context.trace_id
        )
        self.spans.event("send", "event", "client", now, parent=root)
        self._open[req_id] = (root, context.trace_id)
        return context.child(root)

    def join(self, req_id, reply: dict, now: float, status: str) -> None:
        """Graft the reply's span records under the root and close it."""
        entry = self._open.pop(req_id, None)
        if entry is None:
            return
        root, trace_id = entry
        echoed = reply.get("trace_id")
        if echoed is not None and echoed != trace_id:
            self.mismatches += 1
        records = reply.get("spans")
        if isinstance(records, list):
            self.spans.graft(records, parent=root)
        self.spans.end(root, now, status=status)

    def close_unanswered(self, now: float) -> None:
        for req_id in list(self._open):
            self.join(req_id, {}, now, "unanswered")


class _Campaign:
    """Shared mutable state across one run's connection tasks."""

    def __init__(self, spec: LoadSpec) -> None:
        self.spec = spec
        self.report = LoadReport(spec_rate=spec.rate, duration=spec.duration)
        self.pending: dict[int, float] = {}  # id -> send wall time
        self.inflight = 0
        self.traces = _ClientTraces() if spec.trace else None

    def sent(self, req_id: int, now: float) -> Optional[TraceContext]:
        """Record a submit; returns the trace context to stamp on it."""
        self.pending[req_id] = now
        self.report.submitted += 1
        self.inflight += 1
        if self.inflight > self.report.max_inflight:
            self.report.max_inflight = self.inflight
        return None if self.traces is None else self.traces.send(req_id, now)

    def answered(self, header: dict, now: float) -> None:
        req_id = header.get("id")
        sent_at = self.pending.pop(req_id, None)
        if sent_at is not None:
            self.inflight -= 1
        kind = header.get("type")
        if kind == "outcome":
            self.report.completed += 1
            status = header.get("status", "?")
            self.report.statuses[status] = self.report.statuses.get(status, 0) + 1
            if sent_at is not None:
                self.report.latencies_ms.append((now - sent_at) * 1000.0)
        elif kind == "overloaded":
            self.report.shed += 1
            status = "shed"
        else:
            self.report.errors += 1
            return
        if self.traces is not None:
            self.traces.join(req_id, header, now, status)


async def _connection(
    host: str, port: int, campaign: _Campaign, conn_index: int
) -> None:
    """One session: a paced sender plus a reply reader, then a drain wait."""
    spec = campaign.spec
    rng = random.Random(spec.seed * 100_003 + conn_index)
    schedule = arrival_times(rng, spec, spec.rate / spec.connections)
    reader, writer = await _open_connection(host, port)
    loop = asyncio.get_running_loop()
    done_sending = asyncio.Event()

    async def send() -> None:
        start = loop.time()
        seq = 0
        for offset in schedule:
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # Open loop: if we are behind schedule, send immediately —
            # never skip an arrival, never wait for replies.
            req_id = conn_index * 10_000_000 + seq
            seq += 1
            request = sample_request(rng, spec, req_id)
            if (
                spec.trace
                and spec.engine_trace_every > 0
                and seq % spec.engine_trace_every == 0
            ):
                request = replace(request, trace=True)
            context = campaign.sent(req_id, loop.time())
            header = request.to_header()
            if context is not None:
                header.update(context.to_fields())
            writer.write(encode_frame(header))
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()
        done_sending.set()

    async def receive() -> None:
        while True:
            header, _ = await read_frame(reader)
            campaign.answered(header, loop.time())

    sender = asyncio.ensure_future(send())
    receiver = asyncio.ensure_future(receive())
    try:
        await done_sending.wait()
        # Drain: give stragglers a bounded window, then stop reading.
        deadline = loop.time() + spec.drain_seconds
        while campaign.inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.05)
    finally:
        for task in (sender, receiver):
            task.cancel()
        await asyncio.gather(sender, receiver, return_exceptions=True)
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _run_campaign(
    host: str, port: int, spec: LoadSpec, fetch_stats: bool
) -> LoadReport:
    campaign = _Campaign(spec)
    loop = asyncio.get_running_loop()
    started = loop.time()
    # return_exceptions keeps one refused connection from orphaning its
    # siblings mid-flight (un-retrieved task exceptions spray tracebacks);
    # collect everything, then surface the first failure as the verdict.
    results = await asyncio.gather(
        *(
            _connection(host, port, campaign, index)
            for index in range(spec.connections)
        ),
        return_exceptions=True,
    )
    for result in results:
        if isinstance(result, BaseException):
            raise result
    campaign.report.wall_seconds = loop.time() - started
    campaign.report.unanswered = len(campaign.pending)
    traces = campaign.traces
    if traces is not None:
        # Close out roots of unanswered requests so the forest is clean.
        traces.close_unanswered(loop.time())
        campaign.report.spans = traces.spans
        campaign.report.trace_mismatches = traces.mismatches
    if fetch_stats:
        campaign.report.server_stats = await fetch_server_stats(host, port)
    return campaign.report


def run_load(
    host: str, port: int, spec: LoadSpec, fetch_stats: bool = False
) -> LoadReport:
    """Drive one open-loop campaign against ``host:port`` (blocking)."""
    return asyncio.run(_run_campaign(host, port, spec, fetch_stats))


# -- control-plane helpers ---------------------------------------------------------


async def fetch_server_stats(
    host: str, port: int, timeout: float = CONTROL_TIMEOUT
) -> dict:
    """One ``stats`` round-trip on a fresh connection.

    Bounded by ``timeout`` wall seconds end to end; a wedged or
    unreachable server raises :class:`TimeoutError` with a clean message
    instead of hanging the caller.
    """

    async def go() -> dict:
        reader, writer = await _open_connection(host, port)
        try:
            writer.write(encode_frame({"type": "stats"}))
            await writer.drain()
            header, _ = await read_frame(reader)
            return header.get("snapshot", {})
        finally:
            writer.close()

    try:
        return await asyncio.wait_for(go(), timeout)
    except asyncio.TimeoutError:
        raise TimeoutError(
            f"stats request to {host}:{port} timed out after {timeout:.1f}s"
        ) from None


async def _traced_round_trips(
    host: str, port: int, requests: list[ActionRequest], timeout: float
) -> tuple[SpanCollector, list[dict]]:
    traces = _ClientTraces()
    outcomes: list[dict] = []
    loop = asyncio.get_running_loop()
    reader, writer = await _open_connection(host, port)
    try:
        for request in requests:
            now = loop.time()
            header = request.to_header()
            header.update(traces.send(request.id, now).to_fields())
            writer.write(encode_frame(header))
            await writer.drain()
            reply, _ = await asyncio.wait_for(read_frame(reader), timeout)
            arrived = loop.time()
            status = reply.get("status", reply.get("type", "?"))
            traces.join(request.id, reply, arrived, status)
            reply["latency_ms"] = (arrived - now) * 1000.0
            outcomes.append(reply)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
    return traces.spans, outcomes


def run_traced_requests(
    host: str,
    port: int,
    requests: list[ActionRequest],
    timeout: float = CONTROL_TIMEOUT,
) -> tuple[SpanCollector, list[dict]]:
    """Submit ``requests`` one at a time with full trace context (blocking).

    Powers ``repro service trace``: each request gets a fresh trace id, the
    server's span records are grafted under the client root, and the
    replies (with a measured ``latency_ms``) come back alongside the
    merged wall-clock collector.
    """
    return asyncio.run(_traced_round_trips(host, port, requests, timeout))


def request_shutdown(
    host: str, port: int, timeout: float = CONTROL_TIMEOUT
) -> bool:
    """Ask a running server to stop; True if it acknowledged."""

    async def go() -> bool:
        reader, writer = await _open_connection(host, port)
        try:
            writer.write(encode_frame({"type": "shutdown"}))
            await writer.drain()
            header, _ = await read_frame(reader)
            return header.get("type") == "bye"
        finally:
            writer.close()

    async def bounded() -> bool:
        try:
            return await asyncio.wait_for(go(), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"shutdown request to {host}:{port} timed out "
                f"after {timeout:.1f}s"
            ) from None

    return asyncio.run(bounded())
