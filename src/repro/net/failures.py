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

    def separates(self, x: str, y: str, time: float) -> bool:
        if not (self.start <= time < self.end):
            return False
        return (x in self.side_a and y in self.side_b) or (
            x in self.side_b and y in self.side_a
        )


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
    """Applies a :class:`FailurePlan` to messages as the network sends them."""

    DELIVER = "deliver"
    DROP = "drop"
    CORRUPT = "corrupt"

    def __init__(
        self,
        plan: FailurePlan | None = None,
        rng: random.Random | Callable[[], random.Random] | None = None,
    ):
        self.plan = plan if plan is not None else FailurePlan()
        self._rng_source = rng
        self.dropped = 0
        self.corrupted = 0

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

    def crashed(self, name: str, time: float) -> bool:
        """True if endpoint ``name`` is inside a crash window at ``time``."""
        # Plain loops here and in ``decide``: every send of a faulted run
        # asks, and ``any(<genexpr>)`` pays a generator step per window.
        for window in self.plan.crashes:
            if window.name == name and window.covers(time):
                return True
        return False

    def decide(self, src: str, dst: str, time: float) -> str:
        """Fate of a message sent ``src → dst`` at ``time``."""
        plan = self.plan
        if not (
            plan.crashes
            or plan.partitions
            or plan.drop_probability
            or plan.corrupt_probability
        ):
            # Fault-free plan: the common case in count sweeps.  No RNG is
            # drawn on this path in the slow branch either (probability
            # checks short-circuit before sampling), so skipping it keeps
            # all random streams bit-identical.
            return self.DELIVER
        if plan.crashes and (self.crashed(src, time) or self.crashed(dst, time)):
            self.dropped += 1
            return self.DROP
        for partition in plan.partitions:
            if partition.separates(src, dst, time):
                self.dropped += 1
                return self.DROP
        if plan.drop_probability and self._rng.random() < plan.drop_probability:
            self.dropped += 1
            return self.DROP
        if plan.corrupt_probability and self._rng.random() < plan.corrupt_probability:
            self.corrupted += 1
            return self.CORRUPT
        return self.DELIVER
