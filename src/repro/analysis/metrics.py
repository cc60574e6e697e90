"""Trace-derived metrics.

Benchmarks and tests repeatedly need the same quantities out of a run's
trace: when resolution started, when it committed, when every handler had
run, how traffic split across participants and kinds.  This module
extracts them once, with a typed result object, instead of ad-hoc trace
grubbing at every call site.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.simkernel.trace import TraceRecorder


@dataclass(frozen=True)
class ResolutionTimeline:
    """Key instants of one action's resolution, in virtual time.

    ``None`` fields mean the phase never happened (e.g. no commit when no
    exception was raised).
    """

    action: str
    first_raise: Optional[float]
    first_commit: Optional[float]
    last_handler_start: Optional[float]
    last_handler_done: Optional[float]

    @property
    def detection_to_commit(self) -> Optional[float]:
        """The resolution latency the paper's Figure 1 discussion cares
        about: raise → commit."""
        if self.first_raise is None or self.first_commit is None:
            return None
        return self.first_commit - self.first_raise


def resolution_timeline(trace: TraceRecorder, action: str) -> ResolutionTimeline:
    """Extract the resolution timeline of ``action`` from a trace."""
    raises = [
        e.time for e in trace.by_category("raise")
        if e.details.get("action") == action
    ]
    commits = [
        e.time for e in trace.by_category("resolution.commit")
        if e.details.get("action") == action
    ]
    starts = [
        e.time for e in trace.by_category("handler.start")
        if e.details.get("action") == action
    ]
    dones = [
        e.time for e in trace.by_category("handler.done")
        if e.details.get("action") == action
    ]
    return ResolutionTimeline(
        action=action,
        first_raise=min(raises) if raises else None,
        first_commit=min(commits) if commits else None,
        last_handler_start=max(starts) if starts else None,
        last_handler_done=max(dones) if dones else None,
    )


@dataclass(frozen=True)
class TrafficBreakdown:
    """Message-volume split of one run."""

    by_kind: dict[str, int]
    by_sender: dict[str, int]
    by_pair: dict[tuple[str, str], int]

    def total(self) -> int:
        return sum(self.by_kind.values())


def traffic_breakdown(
    trace: TraceRecorder,
    kinds: Optional[set[str]] = None,
    action: Optional[str] = None,
) -> TrafficBreakdown:
    """Summarize ``msg.send`` entries, optionally filtered."""
    by_kind: Counter = Counter()
    by_sender: Counter = Counter()
    by_pair: Counter = Counter()
    for entry in trace.by_category("msg.send"):
        kind = entry.details.get("kind")
        if kinds is not None and kind not in kinds:
            continue
        if action is not None and entry.details.get("action") != action:
            continue
        sender = entry.subject
        dst = entry.details.get("dst")
        by_kind[kind] += 1
        by_sender[sender] += 1
        by_pair[(sender, dst)] += 1
    return TrafficBreakdown(dict(by_kind), dict(by_sender), dict(by_pair))


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of a sample of latencies."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @classmethod
    def of(cls, samples: list[float]) -> "LatencySummary":
        if not samples:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(samples)

        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
            return ordered[index]

        return cls(
            count=len(ordered),
            mean=statistics.mean(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(0.50),
            p95=percentile(0.95),
        )
