"""ASCII message-sequence charts from simulation traces.

Renders the classic distributed-systems lane diagram: one column per
object, one row per traced event, with sends, receives, raises, aborts,
handler runs and commits annotated in the acting object's lane.  Used by
examples and by humans debugging protocol scenarios; the worked-example
integration tests also assert on the paper-relevant rows.

Example output (Example 1)::

        time │ O1              │ O2              │ O3
      10.000 │ raise E1        │                 │
      10.000 │ EXCEPTION →O2   │                 │
      ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.simkernel.trace import TraceEntry, TraceRecorder


class ChartText(NamedTuple):
    """How the records of one trace category read in their lane."""

    text: str  #: formatted over the record's details
    suffix: str = ""  #: appended, formatted the same way, when ``if_set`` is set
    if_set: str = ""


#: trace category -> its annotation.  A category that is not here is not
#: drawn, even when asked for.
CHART_ROWS: dict[str, ChartText] = {
    "raise": ChartText("raise {exception}"),
    "msg.send": ChartText("{kind} →{dst}"),
    "msg.recv": ChartText("◀ {kind} from {src}"),
    "msg.buffered": ChartText("buffer {kind} ({action})"),
    "pending.cleanup": ChartText("clean {dropped} stale msg(s)"),
    "abort.start": ChartText("aborting {action}"),
    "abort.done": ChartText("aborted {action}", ", signals {signal}", "signal"),
    "resolution.commit": ChartText("RESOLVE → {exception}"),
    "handler.start": ChartText("handler[{exception}] starts"),
    "handler.done": ChartText("handler done ({outcome})"),
    "action.enter": ChartText("enter {action}"),
    "action.exit": ChartText("exit {action} ({outcome})"),
}

#: Categories rendered by default, in the lane of ``entry.subject``.
DEFAULT_CATEGORIES = tuple(CHART_ROWS)


@dataclass(frozen=True)
class ChartRow:
    """One rendered row: a time and a per-lane annotation."""

    time: float
    lane: str
    text: str


def _annotation(entry: TraceEntry) -> Optional[str]:
    row = CHART_ROWS.get(entry.category)
    if row is None:
        return None
    details = entry.details
    text = row.text.format(**details)
    if row.if_set and details.get(row.if_set):
        text += row.suffix.format(**details)
    return text


def chart_rows(
    trace: TraceRecorder,
    lanes: Sequence[str],
    categories: Iterable[str] = DEFAULT_CATEGORIES,
    kinds: Optional[set[str]] = None,
) -> list[ChartRow]:
    """Extract renderable rows for the given lanes.

    Args:
        trace: the recorded trace.
        lanes: object names, left to right.
        categories: trace categories to include.
        kinds: when given, message events are filtered to these kinds.
    """
    wanted = set(categories)
    rows: list[ChartRow] = []
    for entry in trace:
        if entry.category not in wanted or entry.subject not in lanes:
            continue
        if kinds is not None and entry.category.startswith("msg"):
            if entry.details.get("kind") not in kinds:
                continue
        text = _annotation(entry)
        if text is not None:
            rows.append(ChartRow(entry.time, entry.subject, text))
    return rows


def _render_rows(
    rows: Sequence[ChartRow],
    lanes: Sequence[str],
    lane_width: int,
    max_rows: int,
) -> list[str]:
    """The shared lane-diagram renderer behind both chart flavours."""
    if lane_width <= 0:
        lane_width = 12
        for row in rows:
            lane_width = max(lane_width, len(row.text) + 1)
        lane_width = min(lane_width, 34)
    header = f"{'time':>10} │ " + " │ ".join(
        lane.ljust(lane_width) for lane in lanes
    )
    divider = "-" * len(header)
    lines = [header, divider]
    elided = 0
    for row in rows:
        if len(lines) - 2 >= max_rows:
            elided += 1
            continue
        cells = []
        for lane in lanes:
            text = row.text if lane == row.lane else ""
            cells.append(text[:lane_width].ljust(lane_width))
        lines.append(f"{row.time:>10.3f} │ " + " │ ".join(cells))
    if elided:
        lines.append(f"... {elided} further events elided ...")
    return lines


def render_sequence_chart(
    trace: TraceRecorder,
    lanes: Sequence[str],
    categories: Iterable[str] = DEFAULT_CATEGORIES,
    kinds: Optional[set[str]] = None,
    lane_width: int = 0,
    max_rows: int = 200,
) -> str:
    """Render the lane diagram as a string.

    ``lane_width`` of 0 auto-sizes to the longest annotation per lane.
    Rows beyond ``max_rows`` are elided with a summary line.
    """
    rows = chart_rows(trace, lanes, categories, kinds)
    return "\n".join(_render_rows(rows, lanes, lane_width, max_rows))


def span_chart_rows(spans, lanes: Sequence[str]) -> list[ChartRow]:
    """Lane rows from a causal span forest (see :mod:`repro.obs.spans`).

    Each span contributes a ``▶ name`` row at its start and a ``■ name
    (outcome)`` row at its end; instantaneous event spans render as a
    single ``● name`` row.  Rows are indented by forest depth, so nested
    abortion chains (action span → resolution span → abort spans) read as
    an indented ladder inside their parent's lifetime.
    """
    lane_set = set(lanes)

    def depth_of(span) -> int:
        depth = 0
        current = span
        while current.parent_id is not None:
            parent = spans.get(current.parent_id)
            if parent is None:
                break
            depth += 1
            current = parent
        return depth

    keyed: list[tuple[float, int, int, ChartRow]] = []
    for span in spans:
        if span.subject not in lane_set:
            continue
        indent = "· " * depth_of(span)
        if span.is_event:
            keyed.append((
                span.start, span.span_id, 0,
                ChartRow(span.start, span.subject, f"{indent}● {span.name}"),
            ))
            continue
        keyed.append((
            span.start, span.span_id, 0,
            ChartRow(span.start, span.subject, f"{indent}▶ {span.name}"),
        ))
        if span.closed:
            outcome = span.attrs.get("outcome")
            suffix = f" ({outcome})" if outcome else ""
            keyed.append((
                span.end, span.span_id, 1,
                ChartRow(span.end, span.subject, f"{indent}■ {span.name}{suffix}"),
            ))
    # Same-instant rows follow span creation order (then begin-before-end
    # for a single span), so a dwell that closes as its successor opens
    # renders closed-then-opened.
    keyed.sort(key=lambda item: item[:3])
    return [row for *_, row in keyed]


def render_span_chart(
    spans,
    lanes: Sequence[str],
    lane_width: int = 0,
    max_rows: int = 200,
) -> str:
    """Render a span forest as a lane diagram.

    The span-level companion to :func:`render_sequence_chart`: instead of
    one row per message, it shows each participant's span lifecycle —
    action entry, resolution start, N→X/S→R state dwells, abortion chains,
    raise/commit/handler instants.  Spans still open at the end of the
    run (crashed or stalled members) are listed in a footer, since they
    have no end row to render.
    """
    rows = span_chart_rows(spans, lanes)
    lines = _render_rows(rows, lanes, lane_width, max_rows)
    lane_set = set(lanes)
    still_open = [
        span for span in spans.open_spans() if span.subject in lane_set
    ]
    for span in still_open:
        lines.append(
            f"... open: {span.subject} {span.name} "
            f"[{span.start:.3f} → …] ..."
        )
    return "\n".join(lines)
