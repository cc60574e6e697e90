"""The simulator loop.

:class:`Simulator` owns the clock and the event queue and runs events in
deterministic order.  Everything else in the reproduction — channels, nodes,
objects, protocol engines — schedules work through it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop
from typing import Any, Callable, Iterator

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
        if start_time < 0:
            raise ValueError(f"clock cannot start at negative time: {start_time}")
        #: Current virtual time.  A plain attribute, the most-read value of
        #: a run: only the drain loop, :meth:`step` and :meth:`advance_to`
        #: write it, and it never moves backwards.
        self.now = float(start_time)
        self._queue = EventQueue()
        self._queue.tie_break = _installed_policy
        self._events_executed = 0
        self._running = False

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for budget checks in tests)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises:
            ValueError: if ``time`` is earlier than the current time.
        """
        if time < self.now:
            raise ValueError(
                f"clock cannot move backwards: now={self.now}, requested={time}"
            )
        self.now = time

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now, called
        with ``arg`` when one is given; returns the queued (cancellable)
        :class:`Event`."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self._queue.push(self.now + delay, action, priority, label, arg)

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: now={self.now}, time={time}"
            )
        return self._queue.push(time, action, priority, label, arg)

    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        self.advance_to(event.time)
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
                self.now = until
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
        ``advance_to`` is paid per event.  A run of raw delivery entries
        (see ``Network.send``) is handed to the queue's ``run_sink`` in one
        call: it delivers from the given index until the next
        :class:`Event`, the budget or a pre-emption, and says how many
        entries it consumed, which this loop then steps over.  A handler
        that queues a *smaller* key (a zero-latency delivery from local
        work) pre-empts the pass: the consumed prefix is trimmed off, the
        tail stays queued, and the new head bucket runs first.  Execution
        order, ``len(queue)`` as a handler sees it, budget semantics and
        the observable state after an exhausted budget, a reached
        ``until`` or a raising handler (consumed entries gone, the next
        one still queued) are those of ``step()`` in a loop.
        """
        queue = self._queue
        keys = queue._keys
        buckets = queue._buckets
        run_sink = queue.run_sink
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
                # bucket are consumed, the last ``ahead`` of them by a run
                # this pass has not stepped over yet.  Past ``until`` the
                # pass may still discard cancelled entries but halts at the
                # first live one.
                start = executed
                skipped = ahead = 0
                halt = executed if time > limit else budget
                for event in bucket:
                    if event.__class__ is Event:
                        if event.cancelled:
                            queue._cancelled_in_heap -= 1
                            skipped += 1
                            continue
                    elif ahead:
                        ahead -= 1
                        continue
                    if executed >= halt:
                        if time > limit:
                            return
                        raise SimulationError(
                            f"event budget exhausted after {executed} events at "
                            f"t={self.now}; likely livelock"
                        )
                    # Keys leave the heap in non-decreasing time order and
                    # pushes are validated against the clock, so the
                    # monotonicity check of advance_to is redundant here.
                    self.now = time
                    if event.__class__ is Event:
                        queue._live -= 1
                        executed += 1
                        event._queue = None
                        arg = event.arg
                        if arg is None:
                            event.action()
                        else:
                            event.action(arg)
                    else:
                        # A run of raw deliveries, one sink call for all of
                        # it: the sink counts each entry off ``_live`` as it
                        # delivers it.  The fallback read covers a sink
                        # claimed after this loop hoisted it (a network
                        # constructed mid-run).
                        try:
                            ahead = (run_sink or queue.run_sink)(
                                bucket, executed - start + skipped, halt - executed
                            )
                        except BaseException:
                            executed += queue.run_consumed
                            raise
                        executed += ahead
                        ahead -= 1
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
