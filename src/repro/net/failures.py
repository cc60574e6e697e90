"""Fault injection.

The paper's fault model (Section 2): hardware faults are node or network
crashes and transient errors, software faults are design faults; fail-stop
is *not* assumed — erroneous information may spread through channels.  The
injector models:

* message drop (lossy channel),
* message corruption (delivered but flagged; receivers detect and raise),
* node crash windows (a crashed endpoint neither sends nor receives),
* network partitions (sets of endpoints mutually unreachable for a window).

All decisions are drawn from named RNG streams, so failure schedules are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

INF = float("inf")


@dataclass(frozen=True)
class CrashWindow:
    """Endpoint ``name`` is crashed during ``[start, end)``."""

    name: str
    start: float
    end: float = float("inf")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class PartitionWindow:
    """During ``[start, end)`` endpoints in ``side_a`` cannot talk to
    endpoints in ``side_b`` (and vice versa)."""

    side_a: frozenset[str]
    side_b: frozenset[str]
    start: float
    end: float = float("inf")


def split_partition(
    members: "list[str] | tuple[str, ...]", start: float, end: float
) -> PartitionWindow:
    """A :class:`PartitionWindow` splitting ``members`` into two halves.

    The split is deterministic (sorted order, first half vs rest), which
    keeps fault campaigns reproducible from their seeds alone.
    """
    ordered = sorted(members)
    if len(ordered) < 2:
        raise ValueError("a partition needs at least two members")
    half = len(ordered) // 2
    return PartitionWindow(
        frozenset(ordered[:half]), frozenset(ordered[half:]), start, end
    )


@dataclass
class FailurePlan:
    """Declarative description of the faults to inject in a run."""

    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    crashes: list[CrashWindow] = field(default_factory=list)
    partitions: list[PartitionWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(f"bad drop probability: {self.drop_probability}")
        if not 0.0 <= self.corrupt_probability <= 1.0:
            raise ValueError(f"bad corrupt probability: {self.corrupt_probability}")


class FailureInjector:
    """Applies a :class:`FailurePlan` to messages as the network sends them.

    The injector is the one owner of crash state: it copies the plan's
    windows at construction, indexed by name, and :meth:`crash` /
    :meth:`restart` open and close windows from there on (the plan itself
    is never edited).  What the windows say at one instant — who is down,
    and each name's opposite side under the partitions active then — is
    kept with the span of time it holds for, so a fate costs set lookups,
    not a scan of every window, until the clock crosses a window's edge.
    """

    DELIVER = "deliver"
    DROP = "drop"
    CORRUPT = "corrupt"

    def __init__(
        self,
        plan: FailurePlan | None = None,
        rng: random.Random | Callable[[], random.Random] | None = None,
    ):
        if plan is None:
            plan = FailurePlan()
        self.plan = plan
        self._rng_source = rng
        self.dropped = 0
        self.corrupted = 0
        #: name -> its crash windows, the plan's first.
        self._crashes: dict[str, list[CrashWindow]] = {}
        for window in plan.crashes:
            self._crashes.setdefault(window.name, []).append(window)
        self._partitions = tuple(plan.partitions)
        #: False while nothing can touch a message: the senders' one test.
        self.active = bool(
            self._crashes
            or self._partitions
            or plan.drop_probability
            or plan.corrupt_probability
        )
        #: The windows read at one instant, valid over ``[_since, _until)``:
        #: the names down, and name -> the names a partition cuts it off from.
        #: The empty span makes the first reader call :meth:`_read_plan`.
        self._down: frozenset[str] = frozenset()
        self._cut: dict[str, frozenset[str]] = {}
        self._since = INF
        self._until = -INF

    @cached_property
    def _rng(self) -> random.Random:
        """The stream drop/corrupt fates are drawn from, made on the first
        draw when a callable was given: a named stream is seeded from its
        name alone, so making it late changes no fate, and a fault-free
        run never pays for seeding one."""
        source = self._rng_source
        if source is None:
            return random.Random(0)
        return source if isinstance(source, random.Random) else source()

    def _read_plan(self, time: float) -> None:
        """Read every window at ``time``, and the span that reading holds
        for: from the last window edge at or before ``time`` to the first
        edge after it."""
        windows = [w for by_name in self._crashes.values() for w in by_name]
        since, until = -INF, INF
        for window in (*windows, *self._partitions):
            for edge in (window.start, window.end):
                if edge <= time:
                    since = max(since, edge)
                else:
                    until = min(until, edge)
        cut: dict[str, frozenset[str]] = {}
        for partition in self._partitions:
            if partition.start <= time < partition.end:
                a, b = partition.side_a, partition.side_b
                for near, far in ((a, b), (b, a)):
                    for name in near:
                        cut[name] = cut.get(name, frozenset()) | far
        self._down = frozenset(w.name for w in windows if w.covers(time))
        self._cut = cut
        self._since, self._until = since, until

    def crash(self, name: str, time: float) -> None:
        """``name`` is down from ``time`` on, until :meth:`restart`."""
        self._crashes.setdefault(name, []).append(CrashWindow(name, time))
        self.active = True
        self._until = -INF

    def restart(self, name: str, time: float) -> None:
        """Close ``name``'s windows open at ``time`` there: it was down over
        ``[start, time)`` and is up from ``time`` on."""
        windows = self._crashes.get(name, [])
        for index, window in enumerate(windows):
            if window.covers(time):
                windows[index] = CrashWindow(name, window.start, time)
        self._until = -INF

    def decide(self, src: str, dst: str, time: float) -> str:
        """Fate of a message sent ``src → dst`` at ``time``: crash, then
        partition, then a drop draw, then a corrupt draw."""
        if not self.active:
            # Fault-free plan: the common case in count sweeps.  No RNG is
            # drawn on this path in the slow branch either (probability
            # checks short-circuit before sampling), so skipping it keeps
            # all random streams bit-identical.
            return self.DELIVER
        if not self._since <= time < self._until:
            self._read_plan(time)
        down, cut = self._down, self._cut
        if src in down or dst in down or (src in cut and dst in cut[src]):
            self.dropped += 1
            return self.DROP
        plan = self.plan
        if plan.drop_probability and self._rng.random() < plan.drop_probability:
            self.dropped += 1
            return self.DROP
        if plan.corrupt_probability and self._rng.random() < plan.corrupt_probability:
            self.corrupted += 1
            return self.CORRUPT
        return self.DELIVER
