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
    return "\n".join(lines)
