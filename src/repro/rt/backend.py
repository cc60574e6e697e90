"""Backend selection helpers for real-concurrency runs.

:func:`repro.core.variants.run_action` (like ``Scenario.run``) builds its
:class:`~repro.objects.runtime.Runtime` internally, so the asyncio kernel
is installed around it via the kernel seam::

    with asyncio_backend(time_scale=0.005):
        run = run_action("ct", 5, 2)

Every Runtime constructed inside the block runs on a fresh
:class:`~repro.rt.kernel.AsyncioKernel` — same protocol state machines,
real wall-clock timers — whose event loop is closed when the block exits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.simkernel.kernel import kernel_backend
from repro.rt.kernel import DEFAULT_TIME_SCALE, AsyncioKernel

#: Names accepted wherever a backend is selected by string.
BACKENDS = ("sim", "asyncio")


@contextmanager
def asyncio_backend(time_scale: float = DEFAULT_TIME_SCALE) -> Iterator[None]:
    """Run every Runtime built in scope on a fresh asyncio kernel.

    Each kernel owns a private event loop; all of them are closed when the
    scope exits, so a run leaves no loop behind for the garbage collector.
    """
    kernels: list[AsyncioKernel] = []

    def make() -> AsyncioKernel:
        kernels.append(AsyncioKernel(time_scale=time_scale))
        return kernels[-1]

    try:
        with kernel_backend(make):
            yield
    finally:
        for kernel in kernels:
            kernel.close()


@contextmanager
def backend(name: str, time_scale: float = DEFAULT_TIME_SCALE) -> Iterator[None]:
    """``"sim"`` (deterministic, default kernel) or ``"asyncio"``."""
    if name == "sim":
        yield
    elif name == "asyncio":
        with asyncio_backend(time_scale=time_scale):
            yield
    else:
        raise ValueError(f"unknown backend {name!r} (expected one of {BACKENDS})")
