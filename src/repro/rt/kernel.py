"""Real-concurrency kernel: the protocol stack on wall-clock asyncio timers.

:class:`AsyncioKernel` implements the :class:`~repro.simkernel.kernel.Kernel`
seam over a private asyncio event loop.  Where the deterministic
:class:`~repro.simkernel.scheduler.Simulator` *jumps* virtual time from
event to event, this kernel *waits*: ``schedule(delay, action)`` arms a
real ``loop.call_at`` timer ``delay * time_scale`` wall-seconds out, and
``now`` is derived from the wall clock.  Timer jitter, callback runtime
and (with the TCP transport) kernel socket scheduling are all real — the
ordering of near-simultaneous events is decided by the operating system,
not by a FIFO tie-break.  That is the point: the conformance kit
(:mod:`repro.rt.harness`) checks that protocol outcomes are *invariant*
under this genuine nondeterminism.

Semantics mirrored from the Simulator so the stack cannot tell backends
apart except by timing:

* ``run(until=...)`` returns once no work is pending (quiescent), the
  deadline passes, or the ``max_events`` budget trips (raising
  :class:`~repro.simkernel.scheduler.SimulationError`, same type);
* exceptions raised by a scheduled action propagate out of ``run``;
* ``run`` may be called repeatedly — timers left over (e.g. past
  ``until``) are re-armed on the next call, and wall time spent *between*
  runs does not advance the clock;
* handles support ``cancel()``/``cancelled``/``time``.

Two extension hooks exist for transports that do work *outside* the timer
set: ``add_service`` registers a long-lived coroutine (started on ``run``,
cancelled when it returns — e.g. a TCP reader), and ``hold``/``release``
bracket in-flight external work (e.g. a frame on a socket) so quiescence
detection does not fire while a message is mid-flight.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.simkernel.scheduler import SimulationError

#: Default wall seconds per virtual time unit.  At 0.005 the canonical
#: unit-latency cells resolve in tens of milliseconds while staying far
#: above timer granularity (~1 ms on Linux), so scheduled order is still
#: meaningfully perturbed by real jitter.
DEFAULT_TIME_SCALE = 0.005


class _RtHandle:
    """A scheduled action: armed on the loop while a run is active."""

    __slots__ = ("_kernel", "time", "action", "arg", "label", "cancelled", "_timer")

    def __init__(self, kernel: "AsyncioKernel", time: float,
                 action: Callable[..., Any], label: str, arg: Any = None) -> None:
        self._kernel = kernel
        self.time = time
        self.action = action
        #: Passed to ``action`` when set, as on the simulator's Event.
        self.arg = arg
        self.label = label
        self.cancelled = False
        self._timer: asyncio.TimerHandle | None = None

    def cancel(self) -> None:
        """Disarm, and drop the action: an ARQ frame's timer action points
        back at its frame, whose ``timer`` is this handle."""
        if self.cancelled:
            return
        self.cancelled = True
        self.action = self.arg = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._kernel._live.discard(self)


class AsyncioKernel:
    """Wall-clock kernel (see module docstring).

    Args:
        time_scale: wall seconds per virtual time unit.
        start_time: initial virtual time.
    """

    #: Marks runtimes whose timing is physical — observers use this to
    #: skip determinism-only assertions (e.g. exact duration equality).
    realtime = True

    def __init__(
        self,
        time_scale: float = DEFAULT_TIME_SCALE,
        start_time: float = 0.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        self._now = start_time
        self._loop = asyncio.new_event_loop()
        #: Scheduled-but-not-yet-fired handles (armed only while running).
        self._live: set[_RtHandle] = set()
        self._anchor: float | None = None
        self._running = False
        self._error: BaseException | None = None
        self._events_executed = 0
        self._budget_left: int | None = None
        self._holds = 0
        self._service_factories: list[Callable[[], Awaitable[None]]] = []
        self._service_tasks: list[asyncio.Task] = []

    # -- Kernel interface -------------------------------------------------------

    @property
    def now(self) -> float:
        """Virtual time: wall-clock progress divided by ``time_scale``.

        Monotonic by construction — between runs it stays frozen at the
        last value (wall time spent outside ``run`` does not count).
        """
        if self._running and self._anchor is not None:
            wall = (self._loop.time() - self._anchor) / self.time_scale
            if wall > self._now:
                self._now = wall
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending_events(self) -> int:
        return len(self._live)

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> _RtHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self._push(self.now + delay, action, label, arg)

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> _RtHandle:
        # Unlike the Simulator this tolerates times slightly in the past:
        # the wall clock drifts past a computed deliver_at while the
        # computing callback itself runs.  Such actions fire immediately.
        return self._push(time, action, label, arg)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until quiescent, ``until`` passes, or the budget trips."""
        if self._running:
            raise SimulationError("kernel is not reentrant")
        loop = self._loop
        self._anchor = loop.time() - self._now * self.time_scale
        self._running = True
        self._error = None
        self._budget_left = max_events
        deadline: asyncio.TimerHandle | None = None
        try:
            if self._live or self._service_factories or self._holds:
                for handle in list(self._live):
                    self._arm(handle)
                for factory in self._service_factories:
                    self._service_tasks.append(loop.create_task(factory()))
                if until is not None:
                    deadline = loop.call_at(
                        self._anchor + until * self.time_scale, loop.stop
                    )
                loop.run_forever()
        finally:
            # Not running from here on: a cancelled service that calls
            # release() in its finally must not loop.stop() the cleanup
            # gather below ("Event loop stopped before Future completed",
            # orphaning every task the gather was reaping).
            self._running = False
            if deadline is not None:
                deadline.cancel()
            for task in self._service_tasks:
                task.cancel()
            if self._service_tasks:
                # Let cancellations unwind (closes sockets cleanly).
                loop.run_until_complete(
                    asyncio.gather(*self._service_tasks, return_exceptions=True)
                )
            self._service_tasks.clear()
            for handle in self._live:
                if handle._timer is not None:
                    handle._timer.cancel()
                    handle._timer = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        if until is not None and until > self._now:
            self._now = until

    def close(self) -> None:
        """Close the underlying loop (the kernel is finished after this),
        and drop the services and timers, which point back at their
        transports and their runs."""
        if not self._loop.is_closed():
            self._loop.close()
        self._service_factories = []
        self._live = set()

    # -- transport hooks ---------------------------------------------------------

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The kernel's private event loop (for transports)."""
        return self._loop

    def add_service(self, factory: Callable[[], Awaitable[None]]) -> None:
        """Register a long-lived coroutine started on every ``run``.

        Services (TCP hubs, connection readers) do not count as pending
        work: an otherwise-quiescent kernel stops even while they run —
        they are infrastructure, not protocol activity.
        """
        self._service_factories.append(factory)

    def fail(self, error: BaseException) -> None:
        """Abort the current run with ``error`` (re-raised from ``run``).

        For services: an exception inside a service coroutine would
        otherwise die silently in its task — this routes it out of
        ``run()`` exactly like an exception in a scheduled action.
        """
        if self._error is None:
            self._error = error
        self._loop.stop()

    def hold(self) -> None:
        """Mark one unit of in-flight external work (blocks quiescence)."""
        self._holds += 1

    def release(self) -> None:
        """Release a :meth:`hold`; stops the loop if nothing remains."""
        if self._holds <= 0:
            raise SimulationError("release() without a matching hold()")
        self._holds -= 1
        self._maybe_stop()

    # -- internals ---------------------------------------------------------------

    def _push(
        self, time: float, action: Callable[..., Any], label: str, arg: Any
    ) -> _RtHandle:
        handle = _RtHandle(self, time, action, label, arg)
        self._live.add(handle)
        if self._running:
            self._arm(handle)
        return handle

    def _arm(self, handle: _RtHandle) -> None:
        assert self._anchor is not None
        handle._timer = self._loop.call_at(
            self._anchor + handle.time * self.time_scale, self._fire, handle
        )

    def _fire(self, handle: _RtHandle) -> None:
        if handle.cancelled:
            return
        self._live.discard(handle)
        handle._timer = None
        if self._budget_left is not None:
            if self._budget_left <= 0:
                self._error = SimulationError(
                    f"event budget exhausted after {self._events_executed} "
                    f"events at t={self.now}; likely livelock"
                )
                self._loop.stop()
                return
            self._budget_left -= 1
        self._events_executed += 1
        if handle.time > self._now:
            self._now = handle.time
        try:
            if handle.arg is None:
                handle.action()
            else:
                handle.action(handle.arg)
        except BaseException as exc:  # noqa: BLE001 — propagate out of run()
            self._error = exc
            self._loop.stop()
            return
        self._maybe_stop()

    def _maybe_stop(self) -> None:
        if self._running and not self._live and self._holds == 0:
            self._loop.stop()
