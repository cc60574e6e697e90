"""Always-on flight recorder: the last K request traces, dumped on trouble.

A production service cannot afford FULL tracing of every request, but the
moment something goes wrong — a shed, a latency-budget breach, a stalled
request, a misbehaving peer — the traces you want are precisely the ones
you just finished (or never finished).  The :class:`FlightRecorder` keeps a
bounded ring of the last ``capacity`` *completed* request traces plus every
still-open one, each a small wall-clock span tree (queue-wait / execute /
serialize / reply, plus the engine-level forest for requests that opted
into full tracing).  When a trigger fires it writes the whole buffer as a
Chrome trace-event JSON plus a JSONL span log through the standard
:mod:`repro.obs.export` machinery — the same artifacts the sim-side
campaign tooling produces, loadable in Perfetto.

Triggers (all counted per reason, all rate-limited by
``min_dump_interval`` so a shed storm produces one dump, not thousands):

* ``shed``            — the server answered ``overloaded``;
* ``p99-breach``      — the rolling p99 latency crossed the budget;
* ``stall``           — an open request trace outlived ``stall_after``;
* ``protocol-error``  — a malformed frame (service session or
  :class:`~repro.rt.tcp.TcpHub` via its ``on_protocol_error`` hook).

The recorder is clock-agnostic: callers pass ``now`` (wall seconds from
any monotonic epoch) into every method, so tests drive it with a fake
clock and the server passes ``loop.time()``.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Optional

from repro.obs.export import write_span_artifacts
from repro.obs.spans import SpanCollector, TraceContext

#: Trigger reasons the recorder recognises (anything else raises — a typo
#: in a trigger call should fail loudly, not silently miscount).
TRIGGER_REASONS = ("shed", "p99-breach", "stall", "protocol-error")


class RequestTrace:
    """One request's wall-clock span tree plus its lifecycle bookkeeping.

    Owns a private wall-clock :class:`SpanCollector` holding the request's
    root span and stage children.  ``remote_parent`` remembers the
    client-side parent span id (from the incoming :class:`TraceContext`)
    so the serialized records can be re-grafted client-side into one
    connected forest.
    """

    __slots__ = (
        "trace_id", "request_id", "spans", "root", "remote_parent",
        "started", "finished", "status", "_stage", "_key",
    )

    def __init__(
        self,
        trace_id: str,
        request_id: Optional[int],
        now: float,
        subject: str = "server",
        remote_parent: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.remote_parent = remote_parent
        self.started = now
        self.finished: Optional[float] = None
        self.status: Optional[str] = None
        self._stage: Optional[int] = None
        self._key: Optional[int] = None  # recorder-internal open-set key
        self.spans = SpanCollector(clock="wall")
        label = f"request {request_id}" if request_id is not None else "request"
        self.root = self.spans.begin(
            label, "request", subject, now, trace_id=trace_id
        )

    @property
    def open(self) -> bool:
        return self.finished is None

    def begin_stage(self, name: str, now: float, **attrs) -> int:
        """Open a stage child span (closing any still-open previous stage)."""
        if self._stage is not None:
            self.spans.end(self._stage, now)
        self._stage = self.spans.begin(
            name, "stage", "server", now, parent=self.root, **attrs
        )
        return self._stage

    def end_stage(self, now: float, **attrs) -> None:
        self.spans.end(self._stage, now, **attrs)
        self._stage = None

    def graft_engine(self, records: list[dict]) -> None:
        """Attach an engine-level span forest under the current stage."""
        parent = self._stage if self._stage is not None else self.root
        self.spans.graft(records, parent=parent)

    def finish(self, now: float, status: str) -> None:
        """Close the trace (idempotent): open stage + root span both end."""
        if self.finished is not None:
            return
        if self._stage is not None:
            self.spans.end(self._stage, now)
            self._stage = None
        self.spans.end(self.root, now, status=status)
        self.finished = now
        self.status = status

    def to_records(self) -> list[dict]:
        """Wire shape for the ``spans`` field of a traced outcome frame."""
        return self.spans.to_records()

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, parent_span=self.root)


class FlightRecorder:
    """Bounded ring of request traces with triggered artifact dumps.

    Args:
        capacity: completed traces retained (oldest evicted first).
        dump_dir: where trigger dumps land; ``None`` records triggers and
            keeps the ring but writes no files (in-memory-only mode).
        stall_after: wall seconds an open trace may age before
            :meth:`check_stalls` fires the ``stall`` trigger.
        min_dump_interval: wall seconds between dumps; triggers inside the
            window are counted as ``suppressed`` instead of re-dumping.
    """

    def __init__(
        self,
        capacity: int = 256,
        dump_dir: Optional[Path] = None,
        stall_after: float = 30.0,
        min_dump_interval: float = 5.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"need a positive ring capacity, got {capacity}")
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.stall_after = stall_after
        self.min_dump_interval = min_dump_interval
        self.trigger_counts: dict[str, int] = {}
        self.suppressed = 0
        self.dumps: list[Path] = []
        self._ring: deque[RequestTrace] = deque(maxlen=capacity)
        self._open: dict[int, RequestTrace] = {}
        self._next_key = 0
        self._last_dump: Optional[float] = None
        self._dump_seq = 0
        self._stalled_keys: set[int] = set()

    # -- trace lifecycle ---------------------------------------------------------

    def start(
        self,
        now: float,
        request_id: Optional[int] = None,
        context: Optional[TraceContext] = None,
        subject: str = "server",
    ) -> RequestTrace:
        """Open a trace for one request.

        With an incoming context the trace joins that distributed trace
        (same id, remote parent recorded); without one — including the
        malformed-context case, which parses to ``None`` — it becomes a
        fresh root trace.
        """
        context = context or TraceContext.new()
        trace = RequestTrace(
            context.trace_id, request_id, now, subject=subject,
            remote_parent=context.parent_span,
        )
        key = self._next_key
        self._next_key += 1
        self._open[key] = trace
        trace._key = key
        return trace

    def finish(self, trace: RequestTrace, now: float, status: str) -> None:
        """Close a trace and move it from the open set into the ring."""
        trace.finish(now, status)
        key, trace._key = trace._key, None
        if key is not None and key in self._open:
            del self._open[key]
            self._stalled_keys.discard(key)
            self._ring.append(trace)

    def open_traces(self) -> list[RequestTrace]:
        return list(self._open.values())

    def completed_traces(self) -> list[RequestTrace]:
        return list(self._ring)

    # -- triggers ----------------------------------------------------------------

    def trigger(self, reason: str, now: float, detail: str = "") -> Optional[Path]:
        """Fire one trigger; dump the buffer unless rate-limited.

        Returns the Chrome-trace path when a dump was written, else
        ``None`` (rate-limited, or no ``dump_dir``).
        """
        if reason not in TRIGGER_REASONS:
            raise ValueError(
                f"unknown trigger reason {reason!r} "
                f"(expected one of {TRIGGER_REASONS})"
            )
        self.trigger_counts[reason] = self.trigger_counts.get(reason, 0) + 1
        if self.dump_dir is None:
            return None
        if (
            self._last_dump is not None
            and now - self._last_dump < self.min_dump_interval
        ):
            self.suppressed += 1
            return None
        self._last_dump = now
        return self._dump(reason, now, detail)

    def check_stalls(self, now: float) -> int:
        """Trigger ``stall`` for open traces older than ``stall_after``.

        Each trace stalls at most once (re-checking every pacer tick must
        not re-fire for the same wedged request).  Returns the number of
        *newly* stalled traces.
        """
        fresh = 0
        for key, trace in self._open.items():
            if key in self._stalled_keys:
                continue
            if now - trace.started >= self.stall_after:
                self._stalled_keys.add(key)
                fresh += 1
                self.trigger(
                    "stall", now,
                    detail=f"request {trace.request_id} open "
                    f"{now - trace.started:.1f}s",
                )
        return fresh

    # -- dumping -----------------------------------------------------------------

    def merged_collector(self) -> SpanCollector:
        """Every buffered trace (completed then open) as one wall forest."""
        merged = SpanCollector(clock="wall")
        for trace in list(self._ring) + list(self._open.values()):
            merged.graft(trace.to_records(), parent=None)
        return merged

    def _dump(self, reason: str, now: float, detail: str) -> Optional[Path]:
        merged = self.merged_collector()
        self._dump_seq += 1
        stem = f"flight-{self._dump_seq:04d}-{reason}"
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        chrome_path = self.dump_dir / f"{stem}.trace.json"
        jsonl_path = self.dump_dir / f"{stem}.spans.jsonl"
        write_span_artifacts(
            merged, {"chrome": chrome_path, "jsonl": jsonl_path}, now,
            f"flight:{reason}", trigger=reason, detail=detail, wall_now=now,
            completed_traces=len(self._ring), open_traces=len(self._open),
        )
        self.dumps += [chrome_path, jsonl_path]
        return chrome_path
