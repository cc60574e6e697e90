"""Always-on flight recorder: the last K request records, dumped on trouble.

A production service cannot afford FULL tracing of every request, but the
moment something goes wrong — a shed, a latency-budget breach, a stalled
request, a misbehaving peer — the traces you want are precisely the ones
you just finished (or never finished).  The server keeps one
:class:`RequestRecord` per request; the :class:`FlightRecorder` holds the
last ``capacity`` *finished* records plus every still-open one.  The
server's stage histograms, the spans shipped to a tracing client and the
trigger dumps (Chrome trace-event JSON plus a JSONL span log, through
:mod:`repro.obs.export`) are views of the records.  :func:`request_spans`
is the one function that turns a record into spans, and it runs only
when a forest is read.

Triggers (all counted per reason, all rate-limited by
``min_dump_interval`` so a shed storm produces one dump, not thousands):

* ``shed``            — the server answered ``overloaded``;
* ``p99-breach``      — the rolling p99 latency crossed the budget;
* ``stall``           — an open request outlived ``stall_after``;
* ``protocol-error``  — a malformed frame (service session or
  :class:`~repro.rt.tcp.TcpHub` via its ``on_protocol_error`` hook).

The recorder is clock-agnostic: callers pass ``now`` (wall seconds from
any monotonic epoch) into every method, so tests drive it with a fake
clock and the server passes ``loop.time()``.
"""

from __future__ import annotations

import secrets
from collections import deque
from pathlib import Path
from typing import Optional

from repro.obs.export import write_span_artifacts
from repro.obs.spans import SpanCollector, TraceContext

#: Trigger reasons the recorder recognises (anything else raises — a typo
#: in a trigger call should fail loudly, not silently miscount).
TRIGGER_REASONS = ("shed", "p99-breach", "stall", "protocol-error")

#: The stages of a queued request, in order: stage ``k`` runs from instant
#: ``k`` of its record to instant ``k + 1``.
STAGES = ("queue-wait", "execute", "serialize", "reply")


class RequestRecord:
    """What the server keeps of one request.

    ``instants`` starts with the admission instant; the server appends one
    per stage boundary (dequeued, executed, serialized), and
    :meth:`FlightRecorder.finish` the last: replied, shed or failed.
    ``queue_depth`` is set when the request is queued (a shed request has
    no stages).  ``execute`` holds the execute stage's attributes;
    ``engine`` the engine's span records of a ``trace: true`` request,
    rescaled onto the execute window.
    """

    __slots__ = (
        "request_id", "trace_id", "remote_parent", "instants", "queue_depth",
        "execute", "engine", "status", "stalled",
    )

    def __init__(
        self, request_id: Optional[int], trace_id: str,
        remote_parent: Optional[int], now: float,
    ) -> None:
        self.request_id = request_id
        self.trace_id = trace_id
        self.remote_parent = remote_parent
        self.instants = [now]
        self.queue_depth: Optional[int] = None
        self.execute: Optional[dict] = None
        self.engine: Optional[list[dict]] = None
        self.status: Optional[str] = None
        self.stalled = False


def request_spans(record: RequestRecord, shipped: bool = False) -> SpanCollector:
    """The wall-clock span forest ``record`` describes.

    A root span for the request, one child per stage it reached, and the
    engine's records grafted under ``execute``.  The stage in progress and
    the root of an unfinished request stay open.  ``shipped`` builds the
    copy a tracing client receives at the serialize instant: the reply
    stage happens after the bytes leave, so it is left out and every open
    span ends at the record's latest instant.
    """
    spans = SpanCollector(clock="wall")
    instants, status = record.instants, record.status
    label = "request" if record.request_id is None else f"request {record.request_id}"
    root = spans.begin(label, "request", "server", instants[0], trace_id=record.trace_id)
    if record.queue_depth is not None:
        # A finished record's last instant ends its last stage; an open
        # one's begins the stage in progress.
        starts = instants[:-1] if status is not None or shipped else instants
        attrs = ({"queue_depth": record.queue_depth}, record.execute or {}, {}, {})
        for k, start in enumerate(starts):
            stage = spans.begin(STAGES[k], "stage", "server", start, parent=root, **attrs[k])
            if k == 1 and record.engine:
                spans.graft(record.engine, parent=stage)
            if k + 1 < len(instants):
                spans.end(stage, instants[k + 1])
    if status is not None:
        spans.end(root, instants[-1], status=status)
    elif shipped:
        for span in spans.open_spans():
            span.end = instants[-1]
    return spans


class FlightRecorder:
    """Bounded ring of request records with triggered artifact dumps.

    Args:
        capacity: finished records retained (oldest evicted first).
        dump_dir: where trigger dumps land; ``None`` records triggers and
            keeps the ring but writes no files (in-memory-only mode).
        stall_after: wall seconds an open record may age before
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
        self._ring: deque[RequestRecord] = deque(maxlen=capacity)
        self._open: dict[RequestRecord, None] = {}  # an ordered set
        #: An untraced request's trace id: this prefix, then its sequence number.
        self._prefix = secrets.token_hex(4)
        self._seq = 0
        self._last_dump: Optional[float] = None
        self._dump_seq = 0

    # -- record lifecycle --------------------------------------------------------

    def start(
        self, now: float, request_id: Optional[int] = None,
        context: Optional[TraceContext] = None,
    ) -> RequestRecord:
        """Open the record of one request.

        With an incoming context the record joins that distributed trace
        (same id, remote parent kept).  Without one — including the
        malformed-context case, which parses to ``None`` — its trace id is
        the recorder's random prefix followed by the request's sequence
        number: unique, without a random draw per request.
        """
        if context is None:
            trace_id, parent = f"{self._prefix}{self._seq:08x}", None
        else:
            trace_id, parent = context.trace_id, context.parent_span
        self._seq += 1
        record = RequestRecord(request_id, trace_id, parent, now)
        self._open[record] = None
        return record

    def finish(self, record: RequestRecord, now: float, status: str) -> None:
        """Close a record (idempotent): it moves from the open set to the ring."""
        if record.status is None:
            record.instants.append(now)
            record.status = status
            del self._open[record]
            self._ring.append(record)

    def open_traces(self) -> list[RequestRecord]:
        return list(self._open)

    def completed_traces(self) -> list[RequestRecord]:
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
        """Trigger ``stall`` for open records older than ``stall_after``.

        Each record stalls at most once (re-checking every pacer tick must
        not re-fire for the same wedged request).  Returns the number of
        *newly* stalled records.
        """
        fresh = 0
        for record in self._open:
            age = now - record.instants[0]
            if not record.stalled and age >= self.stall_after:
                record.stalled = True
                fresh += 1
                self.trigger(
                    "stall", now,
                    detail=f"request {record.request_id} open {age:.1f}s",
                )
        return fresh

    # -- dumping -----------------------------------------------------------------

    def merged_collector(self) -> SpanCollector:
        """Every buffered record (finished, then open) as one wall forest."""
        merged = SpanCollector(clock="wall")
        for record in [*self._ring, *self._open]:
            merged.graft(request_spans(record).to_records())
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
