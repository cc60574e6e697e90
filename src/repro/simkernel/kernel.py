"""The kernel seam: what a scheduler must provide to host the protocols.

Every protocol engine in this repo — the Section 4.2 algorithm, the
crash-tolerant / multicast / centralised variants, the CR baseline, the
network and its ARQ transport, the heartbeat detector — drives itself
through exactly four operations on ``runtime.sim``: read ``now``, arm a
timer with ``schedule``/``schedule_at`` (getting back a cancellable
handle, the queued :class:`~repro.simkernel.events.Event` itself on the
simulator), and ``run`` the event loop.  Nothing touches the event queue,
the virtual clock, or any other :class:`~repro.simkernel.scheduler.Simulator`
internals.

:class:`Kernel` names that seam.  Two implementations exist:

* :class:`~repro.simkernel.scheduler.Simulator` — the deterministic
  discrete-event kernel (virtual time, FIFO tie-breaks, bit-identical
  replays; what every experiment before PR 5 ran on);
* :class:`repro.rt.kernel.AsyncioKernel` — real wall-clock timers on an
  asyncio event loop (genuine concurrency: timer jitter, real latencies,
  optional TCP transport).

``run_action`` and ``Scenario.run`` construct their
:class:`~repro.objects.runtime.Runtime` internally, so a caller cannot
thread a kernel through every signature.
Instead — exactly like the schedule explorer's
:func:`~repro.simkernel.scheduler.scheduling_policy` — a *factory* is
installed process-globally with :func:`kernel_backend` and every Runtime
built inside the ``with`` block adopts it::

    with kernel_backend(lambda: AsyncioKernel(time_scale=0.005)):
        run = run_action("ct", 5, 2)   # real timers

Process-global and not thread-safe, matching the repo's process-based
parallelism (:func:`repro.workloads.parallel.parallel_map` workers each
install their own).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Protocol, runtime_checkable


@runtime_checkable
class KernelHandle(Protocol):
    """Handle to one scheduled action (cancellable timer)."""

    def cancel(self) -> None: ...

    @property
    def cancelled(self) -> bool: ...

    @property
    def time(self) -> float: ...


@runtime_checkable
class Kernel(Protocol):
    """The scheduler interface the protocol stack is written against."""

    @property
    def now(self) -> float:
        """Current time (virtual units; the kernel defines the clock)."""
        ...

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> KernelHandle:
        """Run ``action`` ``delay`` time units from now (called with ``arg``
        when one is given)."""
        ...

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> KernelHandle:
        """Run ``action`` at absolute time ``time``."""
        ...

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run scheduled work until quiescent / ``until`` / budget."""
        ...


KernelFactory = Callable[[], Kernel]

#: Factory inherited by every Runtime constructed while it is installed.
#: ``None`` = the default deterministic Simulator.
_installed_factory: KernelFactory | None = None


def current_kernel_factory() -> KernelFactory | None:
    """The kernel factory new runtimes will pick up, if any."""
    return _installed_factory


@contextmanager
def kernel_backend(factory: KernelFactory | None) -> Iterator[KernelFactory | None]:
    """Install ``factory`` as the kernel for runtimes built in scope."""
    global _installed_factory
    previous = _installed_factory
    _installed_factory = factory
    try:
        yield factory
    finally:
        _installed_factory = previous
