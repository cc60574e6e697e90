"""Exporters: JSONL event log, Chrome trace-event JSON, text span tree.

Three renderings of one :class:`~repro.obs.spans.SpanCollector` forest:

* :func:`spans_to_jsonl` — one JSON object per span, append-friendly, for
  ad-hoc ``jq``/pandas post-mortems.
* :func:`spans_to_chrome` — the Chrome trace-event format (the
  ``{"traceEvents": [...]}`` flavour), loadable in Perfetto or
  ``chrome://tracing``.  Each subject becomes a named track; spans become
  ``ph:"X"`` complete events, instantaneous spans become ``ph:"i"``
  instants.  Virtual time maps 1 VT unit → 1000 µs so sub-unit dwell
  times stay visible.
* :func:`render_span_tree` — a plain-text forest for terminals and golden
  tests.

:func:`write_span_artifacts` is the one place that puts them in files —
every ``repro`` command and recorder that dumps a forest goes through it.
:func:`validate_chrome_trace` is the schema check it (and CI) runs against
the exported JSON — deliberately dependency-free (no jsonschema in the
image).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from .spans import Span, SpanCollector

#: 1 unit of virtual time == 1000 trace microseconds.
VT_TO_US = 1000.0

#: 1 wall-clock second == 1e6 trace microseconds (collectors with
#: ``clock == "wall"`` record in seconds; Chrome traces want µs).
WALL_TO_US = 1_000_000.0


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in span-creation order."""
    return "".join(
        json.dumps(s.record(), sort_keys=True, default=str) + "\n"
        for s in spans
    )


def spans_to_chrome(
    collector: SpanCollector,
    process_name: str = "repro",
    end_time: Optional[float] = None,
) -> dict[str, Any]:
    """Build a Chrome trace-event JSON document from a span forest.

    Open spans (a stalled run) are closed at ``end_time`` (default: the
    latest timestamp seen) and flagged with ``"open": true`` so stalls
    read as bars running off the end of the track, not missing data.

    Timestamps are scaled per the collector's clock domain: virtual-time
    collectors map 1 VT unit → 1000 µs, wall-clock collectors map seconds
    → microseconds.  Wall collectors additionally get their origin shifted
    to the earliest span so traces don't start at a huge monotonic-clock
    offset.
    """
    to_us = (
        WALL_TO_US if getattr(collector, "clock", "virtual") == "wall"
        else VT_TO_US
    )
    origin = 0.0
    if to_us is WALL_TO_US and len(collector):
        origin = min(span.start for span in collector)
    subjects: list[str] = []
    for span in collector:
        if span.subject not in subjects:
            subjects.append(span.subject)
    tids = {subject: i + 1 for i, subject in enumerate(subjects)}

    if end_time is None:
        end_time = 0.0
        for span in collector:
            end_time = max(end_time, span.start, span.end or span.start)

    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for subject, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": subject},
            }
        )

    for span in collector:
        args: dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.cause_ids:
            args["cause_msg_ids"] = list(span.cause_ids)
        for key, value in span.attrs.items():
            args[key] = value if isinstance(value, (int, float, bool)) else str(value)

        base = {
            "name": span.name,
            "cat": span.category,
            "pid": 1,
            "tid": tids[span.subject],
            "ts": (span.start - origin) * to_us,
            "args": args,
        }
        if span.is_event:
            events.append({**base, "ph": "i", "s": "t"})
        else:
            end = span.end
            if end is None:
                end = max(end_time, span.start)
                args["open"] = True
            events.append({**base, "ph": "X", "dur": (end - span.start) * to_us})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": getattr(collector, "clock", "virtual"),
            "to_us": to_us,
            "vt_to_us": VT_TO_US,
        },
    }


def write_span_artifacts(
    spans: SpanCollector,
    targets: Mapping[str, Any],
    end_time: float,
    process_name: str = "repro",
    **other_data: Any,
) -> list[str]:
    """Write the forest once per entry of ``targets``: format -> where.

    A format is ``"chrome"``, ``"tree"`` or ``"jsonl"``; a target is a path
    or an open text stream.  ``end_time`` is *now* on the forest's clock:
    in the chrome document a span still open ends there, so a stall reads
    as a bar up to the moment of the dump.  ``other_data`` joins the chrome
    document's ``otherData``.  Returns what is wrong with the forest or
    with the chrome document's schema (``[]``: nothing).
    """
    problems = spans.forest_problems()
    for fmt, target in targets.items():
        if fmt == "chrome":
            doc = spans_to_chrome(spans, process_name, end_time)
            doc["otherData"].update(other_data)
            problems += validate_chrome_trace(doc)
            text = json.dumps(doc, indent=1) + "\n"
        elif fmt == "tree":
            text = render_span_tree(spans) + "\n"
        elif fmt == "jsonl":
            text = spans_to_jsonl(spans)
        else:
            raise ValueError(f"unknown span artifact format {fmt!r}")
        if hasattr(target, "write"):
            target.write(text)
        else:
            Path(target).write_text(text)
    return problems


def validate_chrome_trace(doc: Any) -> list[str]:
    """Structural validation of a Chrome trace-event document.

    Returns a list of problems (empty == valid).  Checks the subset of
    the trace-event spec this exporter emits: top-level ``traceEvents``
    array; every event has ``ph``/``name``/``pid``/``tid``; ``X`` events
    carry numeric ``ts``/``dur`` with ``dur >= 0``; ``i`` events carry a
    scope; ``M`` events are known metadata records.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "B", "E"):
            problems.append(f"{where}: unknown or missing ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: unknown metadata record {ev.get('name')!r}")
            elif not isinstance(ev.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata record missing args.name")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: missing numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: X event missing numeric dur")
            elif dur < 0:
                problems.append(f"{where}: negative dur {dur}")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant event missing scope 's'")
    return problems


def render_span_tree(
    collector: SpanCollector, include_attrs: bool = True
) -> str:
    """Plain-text forest, children in creation order.

    Events render as ``●``, open spans as ``[start → …]`` — the renderer
    the golden test for the §4.3 worked example pins down.
    """
    index = collector.child_index()
    lines: list[str] = []

    def fmt(span: Span) -> str:
        if span.is_event:
            when = f"● t={span.start:g}"
        elif span.end is None:
            when = f"[{span.start:g} → …]"
        else:
            when = f"[{span.start:g} → {span.end:g}]"
        text = f"{span.name} ({span.subject}) {when}"
        if include_attrs and span.attrs:
            payload = ", ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
            text += f"  {{{payload}}}"
        return text

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(fmt(span))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + fmt(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        kids = index.get(span.span_id, [])
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    roots = index.get(None, [])
    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)


def metrics_to_text(snapshot: dict) -> str:
    """Human-readable rendering of a MetricsRegistry snapshot."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")
    histograms = snapshot.get("histograms", {})
    for name, data in histograms.items():
        count = data["count"]
        lines.append(f"histogram {name}: count={count}")
        if not count:
            continue
        mean = data["sum"] / count
        lines.append(
            f"  min={data['min']:g} mean={mean:g} max={data['max']:g}"
        )
        bounds = data["bounds"]
        edges = ["≤" + format(b, "g") for b in bounds] + [
            ">" + format(bounds[-1], "g") if bounds else "all"
        ]
        for edge, bucket in zip(edges, data["bucket_counts"]):
            if bucket:
                lines.append(f"  {edge:>8}  {bucket}")
    return "\n".join(lines)
