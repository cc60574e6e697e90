"""Deterministic discrete-event simulation kernel.

This package provides the virtual-time substrate on which the distributed
system is simulated: an event queue with deterministic tie-breaking, a
simulator loop, named seeded random streams and a structured trace
recorder.

The kernel is intentionally single-threaded: all concurrency in the
reproduction is *simulated* concurrency, which makes every run reproducible
and makes message counting exact (see DESIGN.md, "Key design decisions").
The protocol stack only ever touches the :class:`Kernel` seam
(:mod:`repro.simkernel.kernel`), so the same state machines also run on
the real-concurrency asyncio backend in :mod:`repro.rt`.
"""

from repro.simkernel.events import Event, EventQueue
from repro.simkernel.kernel import (
    Kernel,
    KernelHandle,
    current_kernel_factory,
    kernel_backend,
)
from repro.simkernel.rng import RngRegistry
from repro.simkernel.scheduler import Simulator
from repro.simkernel.trace import TraceEntry, TraceLevel, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "Kernel",
    "KernelHandle",
    "current_kernel_factory",
    "kernel_backend",
    "RngRegistry",
    "Simulator",
    "TraceEntry",
    "TraceLevel",
    "TraceRecorder",
]
