"""A standalone monotonic virtual clock.

The clock only ever moves forward.  The simulator does not hold one: its
time is the plain attribute ``Simulator.now``, which the drain loop writes
once per event and every substrate reads without a property call.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonically non-decreasing virtual time, in abstract time units."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises:
            ValueError: if ``time`` is earlier than the current time.
        """
        if time < self._now:
            raise ValueError(
                f"clock cannot move backwards: now={self._now}, requested={time}"
            )
        self._now = time

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now})"
