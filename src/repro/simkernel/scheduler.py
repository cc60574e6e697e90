"""The simulator loop.

:class:`Simulator` owns the clock and the event queue and runs events in
deterministic order.  Everything else in the reproduction — channels, nodes,
objects, protocol engines — schedules work through it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop
from typing import Any, Callable, Iterator

from repro.simkernel.clock import VirtualClock
from repro.simkernel.events import PRIORITY_NORMAL, Event, EventQueue, TieBreakPolicy


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (negative delays, re-running...)."""


#: Tie-break policy inherited by every Simulator constructed while it is
#: installed (see :func:`scheduling_policy`).  ``None`` = FIFO fast path.
_installed_policy: TieBreakPolicy | None = None


def current_scheduling_policy() -> TieBreakPolicy | None:
    """The tie-break policy new simulators will pick up, if any."""
    return _installed_policy


@contextmanager
def scheduling_policy(policy: TieBreakPolicy | None) -> Iterator[TieBreakPolicy | None]:
    """Install ``policy`` as the tie-break for simulators built in scope.

    Variant runners construct their :class:`~repro.objects.runtime.Runtime`
    (and thus their :class:`Simulator`) internally, so the schedule
    explorer cannot thread a policy through every call signature; instead
    it installs one here and any simulator created inside the ``with``
    block adopts it.  Process-global and not thread-safe — exploration
    parallelism in this repo is process-based (``parallel_map``), where
    each worker installs its own policy.
    """
    global _installed_policy
    previous = _installed_policy
    _installed_policy = policy
    try:
        yield policy
    finally:
        _installed_policy = previous


@dataclass
class ScheduledHandle:
    """Handle to a scheduled event, allowing cancellation."""

    event: Event

    def cancel(self) -> None:
        self.event.cancel()

    @property
    def cancelled(self) -> bool:
        return self.event.cancelled

    @property
    def time(self) -> float:
        return self.event.time


class Simulator:
    """Deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = VirtualClock(start_time)
        self._queue = EventQueue()
        self._queue.tie_break = _installed_policy
        self._events_executed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time."""
        # Reads the clock's backing field directly: this property is the
        # single most-called accessor in a run, and the extra property hop
        # through VirtualClock.now is measurable in large sweeps.
        return self.clock._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for budget checks in tests)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> ScheduledHandle:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        event = self._queue.push(self.now + delay, action, priority, label)
        return ScheduledHandle(event)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> ScheduledHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: now={self.now}, time={time}"
            )
        event = self._queue.push(time, action, priority, label)
        return ScheduledHandle(event)

    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._events_executed += 1
        event.fire()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the
        ``max_events`` budget is exhausted.

        Args:
            until: stop once the next event would fire after this time.  The
                clock is advanced to ``until`` when given.
            max_events: safety budget; raises :class:`SimulationError` when
                exceeded (catches accidental protocol livelock in tests).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # Pause the cyclic GC for the drain.  A drain allocates far more
        # containers than it frees (messages, trace records, protocol state
        # that lives as long as the run), so the allocation-count heuristic
        # would start collections that find nothing to free: without the
        # pause, one N=256 sim_large action runs 239 gen-0, 21 gen-1 and
        # 1 gen-2 of them (CPython 3.11's default thresholds).  Nothing is
        # left owed to the collector: a released run holds no reference
        # cycle (Runtime.release), and gc.enable() below collects nothing
        # itself, it only lets the heuristic count again.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if self._queue.tie_break is None:
                self._run_fast(until, max_events)
            else:
                self._run_controlled(until, max_events)
            if until is not None and until > self.now:
                self.clock.advance_to(until)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False

    def _run_fast(self, until: float | None, max_events: int | None) -> None:
        """Drain loop for the FIFO (no tie-break policy) case.

        Works on the queue's buckets directly: the head bucket — every
        entry queued under the smallest ``(time, priority)`` — is run with
        a plain ``for`` over its list, so entries appended under the same
        key by the handlers themselves run in the same pass, and no heap
        operation, ``step()``/``pop()`` call or monotonicity-checked
        ``advance_to`` is paid per event.  A handler that queues a
        *smaller* key (a zero-latency delivery from local work) pre-empts
        the pass: the consumed prefix is trimmed off, the tail stays
        queued, and the new head bucket runs first.  Execution order,
        budget semantics and the observable state after an exhausted
        budget, a reached ``until`` or a raising handler (consumed entries
        gone, the next one still queued) are those of ``step()`` in a loop.
        """
        queue = self._queue
        keys = queue._keys
        buckets = queue._buckets
        clock = self.clock
        sink = queue.message_sink
        # Fold the optional bounds into always-comparable sentinels: one
        # comparison per event instead of a None test plus a comparison.
        limit = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        executed = 0
        bucket = None
        try:
            while keys:
                key = keys[0]
                time = key[0]
                queue._draining = bucket = buckets[key]
                # The first ``executed - start + skipped`` entries of the
                # bucket are consumed.  Past ``until`` the pass may still
                # discard cancelled entries but halts at the first live one.
                start = executed
                skipped = 0
                halt = executed if time > limit else budget
                for event in bucket:
                    if event.__class__ is Event and event.cancelled:
                        queue._cancelled_in_heap -= 1
                        skipped += 1
                        continue
                    if executed >= halt:
                        if time > limit:
                            return
                        raise SimulationError(
                            f"event budget exhausted after {executed} events at "
                            f"t={clock._now}; likely livelock"
                        )
                    queue._live -= 1
                    # Keys leave the heap in non-decreasing time order and
                    # pushes are validated against the clock, so the
                    # monotonicity check of advance_to is redundant here.
                    clock._now = time
                    executed += 1
                    if event.__class__ is not Event:
                        # Raw delivery entry (see Network.send): the payload
                        # is the message itself, dispatched straight to the
                        # sink — no Event was ever allocated for it.  The
                        # fallback read covers a sink claimed after this
                        # loop hoisted it (a network constructed mid-run).
                        (sink or queue.message_sink)(event)
                    else:
                        event._queue = None
                        arg = event.arg
                        if arg is None:
                            event.action()
                        else:
                            event.action(arg)
                    if keys[0] is not key:
                        # Pre-empted: a smaller key was queued just now.
                        del bucket[: executed - start + skipped]
                        break
                else:
                    heappop(keys)
                    del buckets[key]
                    bucket = None
        finally:
            if bucket is not None:
                # Halted or raised mid-bucket (after a pre-emption trim the
                # loop always re-enters, so this is never a second trim).
                del bucket[: executed - start + skipped]
            queue._draining = None
            self._events_executed += executed

    def _run_controlled(self, until: float | None, max_events: int | None) -> None:
        """Generic loop: every pop goes through the tie-break policy."""
        executed = 0
        while True:
            if until is None:
                if not self._queue:
                    break
            else:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > until:
                    break
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {executed} events at "
                    f"t={self.now}; likely livelock"
                )
            self.step()
            executed += 1
