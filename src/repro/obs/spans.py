"""Causal spans: the hierarchical reading of the flat trace.

The paper's claims are behavioural — the ``N → X/S → R`` state machine per
object (Section 4.2), innermost-first abortion of nested-action chains
(Section 4.1), domino chains (Section 3.3) — and a flat
``(time, category, subject)`` log cannot answer "which exception caused
this abortion chain?".  A :class:`Span` is an interval of time with a
parent span and the ids of the messages that *caused* it, so a run
becomes a forest:

    action A1 (O2)
    └─ resolution A1 (O2)           cause: Exception#17
       ├─ state S                   dwell spans, one per protocol state
       ├─ abort A3                  innermost-first chain, in order
       ├─ abort A2
       ├─ state X
       ├─ state R
       ├─ ● resolver.commit
       └─ handler UniversalException

Engines never write spans.  They write trace records, and a simulated
run's forest (``Runtime.spans``) is :func:`from_trace` applied to them:
:data:`SPAN_ROWS` says, per trace category, which span a record opens,
closes or marks.  A trace below ``FULL`` holds no entries, so its forest is
empty.  The live service's request forests are likewise a view of a
record (:func:`repro.service.flight.request_spans`).  A
:class:`SpanCollector` is written to directly only for the load
generator's client roots and for forests moved across the wire
(``to_records`` / ``graft``).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple, Optional

#: Clock domains a collector can record in.  ``virtual`` is the simulator's
#: virtual time (the original, deterministic domain); ``wall`` is wall-clock
#: seconds from an arbitrary epoch (``loop.time()`` in the live service).
#: The exporters scale timestamps per domain; nothing else cares.
CLOCKS = ("virtual", "wall")


@dataclass
class Span:
    """One interval of virtual time in the causal forest.

    Attributes:
        span_id: unique id within one collector (> 0).
        parent_id: enclosing span's id, or ``None`` for a root.
        name: display name, e.g. ``"resolution A1"`` or ``"state X"``.
        category: machine-friendly kind (``action``, ``resolution``,
            ``state``, ``abort``, ``handler``, ``event`` …).
        subject: the acting entity (object name, coordinator name …).
        start: virtual time the span opened.
        end: virtual time it closed; ``None`` while still open (a run that
            stalls leaves its spans open — itself a diagnostic).
        cause_ids: ids of the messages whose processing opened this span —
            the causal edges that make domino chains visible.
        attrs: free-form payload (exception names, outcomes, counts).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    subject: str
    start: float
    end: Optional[float] = None
    cause_ids: tuple[int, ...] = ()
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def is_event(self) -> bool:
        """True for instantaneous occurrences (raise, commit, crash …)."""
        return self.end is not None and self.end == self.start

    def record(self) -> dict[str, Any]:
        """The span as a plain JSON-able dict (the wire and JSONL shape)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "subject": self.subject,
            "start": self.start,
            "end": self.end,
            "cause_ids": list(self.cause_ids),
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class TraceContext:
    """Distributed-trace identity carried across process/wire boundaries.

    A trace id names one end-to-end request; ``parent_span`` is the span id
    (in the *originator's* collector) the next hop should causally attach
    under.  The context travels as two plain header fields (``trace_id``,
    ``parent_span``) inside the JSON frame headers of :mod:`repro.rt.tcp`
    and :mod:`repro.service.protocol` — the hub forwards frames verbatim,
    so propagation through any number of hops is free.

    Parsing is deliberately *tolerant*: a missing or malformed context
    degrades to ``None`` (the receiver starts a fresh root trace) and is
    never a protocol error — tracing must not be able to take a request
    down.
    """

    trace_id: str
    parent_span: Optional[int] = None

    #: Longest trace id accepted off the wire (hardening, not a format).
    MAX_ID_LEN = 64

    @staticmethod
    def new() -> "TraceContext":
        """A fresh root context with a random 16-hex-digit trace id."""
        return TraceContext(trace_id=uuid.uuid4().hex[:16])

    def child(self, span_id: int) -> "TraceContext":
        """The context the next hop should receive: same trace, new parent."""
        return TraceContext(trace_id=self.trace_id, parent_span=span_id)

    def to_fields(self) -> dict:
        """Header fields to merge into an outgoing frame header."""
        fields: dict = {"trace_id": self.trace_id}
        if self.parent_span is not None:
            fields["parent_span"] = self.parent_span
        return fields

    @staticmethod
    def from_header(header: Any) -> Optional["TraceContext"]:
        """Extract a context from a frame header; ``None`` if absent/bad.

        Never raises: garbage in either field (wrong type, empty, oversized
        id, boolean posing as an int) yields ``None`` so the receiver falls
        back to a fresh root trace.
        """
        if not isinstance(header, dict):
            return None
        trace_id = header.get("trace_id")
        if (
            not isinstance(trace_id, str)
            or not trace_id
            or len(trace_id) > TraceContext.MAX_ID_LEN
        ):
            return None
        parent = header.get("parent_span")
        if parent is not None and (
            isinstance(parent, bool) or not isinstance(parent, int)
        ):
            return None
        return TraceContext(trace_id=trace_id, parent_span=parent)


class SpanCollector:
    """Append-only collector of :class:`Span` with forest queries.

    ``clock`` names the time domain every ``time`` argument lives in:
    ``"virtual"`` (simulator units, the default) or ``"wall"`` (wall-clock
    seconds) — the collector itself is clock-agnostic, the exporters scale
    per domain.
    """

    def __init__(self, clock: str = "virtual") -> None:
        if clock not in CLOCKS:
            raise ValueError(f"unknown clock {clock!r} (expected one of {CLOCKS})")
        self.clock = clock
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._next_id = 1

    # -- recording -------------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        subject: str,
        time: float,
        parent: Optional[int] = None,
        cause: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id (parent/cause wiring is by id)."""
        span_id = self._next_id
        self._next_id += 1
        span = Span(
            span_id=span_id,
            parent_id=parent,
            name=name,
            category=category,
            subject=subject,
            start=time,
            cause_ids=(cause,) if cause is not None else (),
            attrs=attrs,
        )
        self.spans.append(span)
        self._by_id[span_id] = span
        return span_id

    def end(self, span_id: Optional[int], time: float, **attrs: Any) -> None:
        """Close an open span (idempotent; ``None`` ids are ignored so
        callers need not re-check whether they ever opened one)."""
        if span_id is None:
            return
        span = self._by_id.get(span_id)
        if span is None or span.end is not None:
            return
        span.end = time
        if attrs:
            span.attrs.update(attrs)

    def event(
        self,
        name: str,
        category: str,
        subject: str,
        time: float,
        parent: Optional[int] = None,
        cause: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record an instantaneous occurrence as a zero-duration span."""
        span_id = self.begin(
            name, category, subject, time, parent=parent, cause=cause, **attrs
        )
        self._by_id[span_id].end = time
        return span_id

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def open_spans(self) -> list[Span]:
        """Spans never closed — in a healthy terminated run, empty."""
        return [s for s in self.spans if s.end is None]

    def child_index(self) -> dict[Optional[int], list[Span]]:
        """parent id (``None`` for roots) -> children in creation order."""
        index: dict[Optional[int], list[Span]] = {}
        for span in self.spans:
            index.setdefault(span.parent_id, []).append(span)
        return index

    # -- interchange -----------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Serialize every span to a plain JSON-able dict (wire/JSONL shape).

        The inverse is :meth:`graft` on some other collector — together they
        move a span forest across a process boundary (the resolution server
        ships its per-request spans back to the tracing client this way).
        """
        return [span.record() for span in self.spans]

    def graft(
        self, records: list[dict], parent: Optional[int] = None
    ) -> dict[int, int]:
        """Import serialized span records under ``parent``, remapping ids.

        Records whose ``parent_id`` is another record in the batch keep
        their internal structure; records whose parent is unknown (foreign
        roots) are re-parented onto ``parent``.  Returns the old→new id
        mapping.  Malformed records are skipped — grafting remote spans
        must never corrupt the local forest.
        """
        mapping: dict[int, int] = {}
        grafted: list[tuple[dict, int]] = []
        for record in records:
            if not isinstance(record, dict):
                continue
            old_id = record.get("span_id")
            start = record.get("start")
            if not isinstance(old_id, int) or not isinstance(start, (int, float)):
                continue
            new_id = self._next_id
            self._next_id += 1
            mapping[old_id] = new_id
            grafted.append((record, new_id))
        for record, new_id in grafted:
            old_parent = record.get("parent_id")
            new_parent = mapping.get(old_parent, parent)
            end = record.get("end")
            attrs = record.get("attrs")
            span = Span(
                span_id=new_id,
                parent_id=new_parent,
                name=str(record.get("name", "?")),
                category=str(record.get("category", "?")),
                subject=str(record.get("subject", "?")),
                start=float(record["start"]),
                end=float(end) if isinstance(end, (int, float)) else None,
                cause_ids=tuple(
                    c for c in record.get("cause_ids", ()) if isinstance(c, int)
                ),
                attrs=dict(attrs) if isinstance(attrs, dict) else {},
            )
            self.spans.append(span)
            self._by_id[new_id] = span
        return mapping

    # -- invariants ------------------------------------------------------------

    def forest_problems(self) -> list[str]:
        """Structural violations: orphans, cycles, bad intervals.

        The span tree is only trustworthy if parent ids form a forest —
        the property tests run this over every variant.
        """
        problems: list[str] = []
        for span in self.spans:
            if span.parent_id is not None and span.parent_id not in self._by_id:
                problems.append(
                    f"span {span.span_id} ({span.name}) has unknown parent "
                    f"{span.parent_id}"
                )
            if span.end is not None and span.end < span.start:
                problems.append(
                    f"span {span.span_id} ({span.name}) ends at {span.end} "
                    f"before its start {span.start}"
                )
        # Cycle check: walk each span to a root, flagging repeats.  Parent
        # ids are assigned before children exist, so cycles indicate a
        # collector bug — still worth a direct guarantee.
        for span in self.spans:
            seen = set()
            current: Optional[Span] = span
            while current is not None and current.parent_id is not None:
                if current.span_id in seen:
                    problems.append(
                        f"cycle through span {span.span_id} ({span.name})"
                    )
                    break
                seen.add(current.span_id)
                current = self._by_id.get(current.parent_id)
        return problems


# -- the forest as a view of the trace ------------------------------------------------


class SpanRow(NamedTuple):
    """What the records of one trace category mean for the forest."""

    #: ``"open"`` a span, ``"close"`` the one open under the same subject
    #: and action, mark an instantaneous ``"event"``, or ``""``: only ``ends``.
    op: str = ""
    kind: str = ""  #: the span's category
    name: str = ""  #: the span's name, formatted over ``subject`` and the details
    parent: str = ""  #: kind of the enclosing span: action, resolution, or a root
    attrs: tuple[str, ...] = ()  #: details copied onto the span, where present
    outcome: str = ""  #: a fixed ``outcome`` attribute
    ends: str = ""  #: the outcome with which the record also ends the resolution


_COMMIT = SpanRow("event", "commit", "commit {exception}", "resolution", ("exception", "raisers"))
_DEAD_LETTER = SpanRow(
    "event", "dead_letter", "dead_letter {kind}", attrs=("dst", "kind", "retries")
)

#: trace category -> its row.  Any record may carry ``cause=<msg id>``, the
#: causal edge of the span it opens or marks.  A category that is not here
#: (every ``msg.*`` but the dead letters, say) leaves the forest alone.
SPAN_ROWS: dict[str, SpanRow] = {
    # the Section 4.2 participant, core/{participant,algorithm,abortion}.py;
    # the Member variants write the join, commit and abort records too, with
    # a ``variant`` detail
    "action.enter": SpanRow("open", "action", "action {action}", "action"),
    "action.exit": SpanRow("close", "action", attrs=("outcome", "signal")),
    "action.retry": SpanRow("event", "retry", "retry {action}", "action", ("attempt",)),
    "resolution.join": SpanRow("open", "resolution", "resolution {action}", "action", ("variant",)),
    "resolution.escalate": SpanRow(ends="escalated"),
    "state": SpanRow("open", "state", "state {state}", "resolution"),
    "raise": SpanRow("event", "raise", "raise {exception}", "resolution", ("exception",)),
    "resolution.commit": _COMMIT,
    "abort.start": SpanRow("open", "abort", "abort {action}", "resolution", ("depth",)),
    "abort.done": SpanRow("close", "abort", attrs=("signal",)),
    "handler.start": SpanRow(
        "open", "handler", "handler {exception}", "resolution", ("exception",)
    ),
    "handler.done": SpanRow("close", "handler", attrs=("outcome",), ends="handled {exception}"),
    "handler.cancelled": SpanRow("close", "handler", outcome="cancelled"),
    # the Member variants alone: core/{variants,crash_tolerant,centralized_variant}.py
    "resolution.handle": SpanRow(
        "event", "handler", "handler {exception}", "resolution", ("exception",),
        ends="handled {exception}",
    ),
    "coordinator.commit": _COMMIT._replace(ends="committed {exception}"),
    "ct.rejoin_abort": SpanRow(
        "event", "rejoin", "rejoin confirmed-abort", "resolution", ("exception",)
    ),
    "ct.restart": SpanRow("event", "restart", "restart {subject}", attrs=("replayed", "undone")),
    # the substrate: net/detector.py, objects/runtime.py, net/{reliable,multicast}.py
    "detector.suspect": SpanRow("event", "suspect", "suspect {peer}", "resolution", ("peer",)),
    "node.crash": SpanRow("event", "crash", "crash {subject}"),
    "node.restart": SpanRow("event", "restart", "restart {subject}"),
    "msg.dead_letter": _DEAD_LETTER,
    "mcast.dead_letter": _DEAD_LETTER,
}

#: Span kinds a subject has one of at a time (the rest are one per action).
_ONE_PER_SUBJECT = ("resolution", "state")


def from_trace(entries: Iterable[Any]) -> SpanCollector:
    """The span forest that a run's trace entries describe.

    One pass in record order, so spans are numbered in the order the
    engines reached them, and a longer trace only extends the forest of
    its prefix and closes what the prefix left open.
    """
    forest = SpanCollector()
    #: (kind, subject, action) -> newest such span; ``action`` is ``None``
    #: for the one resolution and the one state dwell a subject is in.
    newest: dict[tuple[str, str, Optional[str]], int] = {}
    entered: dict[str, list[int]] = {}  # subject -> its action spans, inner last

    for entry in entries:
        row = SPAN_ROWS.get(entry.category)
        if row is None:
            continue
        time, subject, details = entry.time, entry.subject, entry.details
        action = details.get("action")
        key = (row.kind, subject, None if row.kind in _ONE_PER_SUBJECT else action)
        attrs = {
            name: ",".join(value) if isinstance(value, tuple) else value
            for name, value in details.items() if name in row.attrs
        }
        if row.op == "close":
            if row.outcome:
                attrs["outcome"] = row.outcome
            forest.end(newest.get(key), time, **attrs)
            if row.kind == "abort":  # its abortion handler is how an action is left
                forest.end(newest.get(("action", subject, action)), time, outcome="aborted")
        elif row.op:
            if row.kind == "action":  # nests in the innermost action still open
                inside = entered.setdefault(subject, [])
                parent = next(
                    (s for s in reversed(inside) if not forest.get(s).closed), None
                )
            else:
                parent = newest.get(
                    (row.parent, subject, action if row.parent == "action" else None)
                )
            if row.kind == "state":  # one dwell at a time
                forest.end(newest.get(key), time)
            record = forest.begin if row.op == "open" else forest.event
            span = record(
                row.name.format(subject=subject, **details), row.kind, subject,
                time, parent=parent, cause=details.get("cause"), **attrs,
            )
            if row.op == "open":
                newest[key] = span
            if row.kind == "action":
                inside.append(span)
            elif row.kind == "restart":  # memory is lost: what was open stays open
                for stale in [k for k in newest if k[1] == subject]:
                    del newest[stale]
        if row.ends:
            forest.end(newest.get(("state", subject, None)), time)
            forest.end(
                newest.get(("resolution", subject, None)), time,
                outcome=row.ends.format(**details),
            )
    return forest
