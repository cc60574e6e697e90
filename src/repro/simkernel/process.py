"""Generator-based simulated processes.

A :class:`SimProcess` wraps a Python generator that *yields* control-flow
commands to the simulator: ``Delay(t)`` suspends the process for ``t`` units
of virtual time, ``Stop()`` terminates it.  This gives workload scripts a
straight-line coding style while the kernel stays purely event-driven.

The CA-action behaviour engine (:mod:`repro.workloads.behaviour`) is
event-driven rather than generator-based — it needs cancellable,
resumable-at-a-different-point control flow that generators cannot
express — but SimProcess remains the right tool for straight-line
auxiliary processes (load generators, monitors) in examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.simkernel.events import Event
from repro.simkernel.scheduler import Simulator


@dataclass(frozen=True)
class Delay:
    """Yield from a process generator to sleep ``duration`` virtual time."""

    duration: float


@dataclass(frozen=True)
class Stop:
    """Yield from a process generator to terminate the process."""


ProcessBody = Generator[object, None, None]


class SimProcess:
    """A resumable process running on the simulator.

    The process can be *interrupted*: the pending wake-up is cancelled and
    the generator is closed.  This models a participating object whose normal
    activity is taken over by an exception handler (the paper's termination
    model, Section 3.1).
    """

    def __init__(
        self,
        sim: Simulator,
        body: ProcessBody,
        name: str = "process",
        on_finish: Optional[Callable[[], None]] = None,
        on_command: Optional[Callable[[object], None]] = None,
    ) -> None:
        self._sim = sim
        self._body = body
        self.name = name
        self._on_finish = on_finish
        self._on_command = on_command
        self._pending: Optional[Event] = None
        self.finished = False
        self.interrupted = False

    def start(self, delay: float = 0.0) -> None:
        """Schedule the first resumption of the process."""
        self._pending = self._sim.schedule(delay, self._resume, label=self.name)

    def interrupt(self) -> None:
        """Stop the process: cancel wake-ups and close the generator."""
        if self.finished:
            return
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._body.close()
        self.interrupted = True
        self.finished = True

    @property
    def suspended(self) -> bool:
        """True while the process is waiting for an external resume."""
        return not self.finished and self._pending is None

    def resume_now(self) -> None:
        """Externally resume a process that yielded an unknown command.

        A behaviour engine may yield sentinel objects (e.g. "wait until the
        action completes") that the kernel does not interpret; the engine
        then calls :meth:`resume_now` when the condition holds.
        """
        if self.finished:
            raise RuntimeError(f"cannot resume finished process {self.name}")
        if self._pending is not None:
            raise RuntimeError(f"process {self.name} already has a pending resume")
        self._pending = self._sim.schedule(0.0, self._resume, label=self.name)

    def _resume(self) -> None:
        self._pending = None
        try:
            command = next(self._body)
        except StopIteration:
            self._finish()
            return
        if isinstance(command, Delay):
            if command.duration < 0:
                raise ValueError(f"negative delay in process {self.name}")
            self._pending = self._sim.schedule(
                command.duration, self._resume, label=self.name
            )
        elif isinstance(command, Stop):
            self._body.close()
            self._finish()
        else:
            # Unknown command: the process suspends until an external
            # controller calls resume_now().  The command is handed to the
            # controller via on_command (see repro.workloads.behaviour).
            if self._on_command is None:
                raise RuntimeError(
                    f"process {self.name} yielded {command!r} but has no "
                    "command handler"
                )
            self._on_command(command)

    def _finish(self) -> None:
        self.finished = True
        if self._on_finish is not None:
            self._on_finish()
