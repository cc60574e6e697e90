"""Real-concurrency backend (Section 4.5's "practical infrastructure").

The paper sketches its implementation on a real distributed runtime —
reliable multicast, meta-object protocol — while every experiment in this
repo up to PR 4 ran on the deterministic simkernel.  This package closes
that gap: the **same** protocol state machines execute on real asyncio
wall-clock timers (:class:`AsyncioKernel`), over the same channel /
failure-injection / ARQ / heartbeat stack, optionally with every message
riding a real localhost TCP socket (:class:`TcpTransport`).

The headline deliverable is the conformance kit (:mod:`repro.rt.harness`):
:class:`ProtocolHarness` runs identical campaign cells on both backends
and checks their oracle digests agree — the sim-vs-real gap as a
correctness oracle (``repro rt conformance``).
"""

from repro.rt.backend import BACKENDS, asyncio_backend, backend
from repro.rt.harness import (
    ConformanceCellResult,
    ConformanceReport,
    ProtocolHarness,
    conformance_cells,
    oracle_digest,
)
from repro.rt.kernel import DEFAULT_TIME_SCALE, AsyncioKernel
from repro.rt.tcp import TcpHub, TcpTransport, tcp_transport

__all__ = [
    "AsyncioKernel",
    "BACKENDS",
    "ConformanceCellResult",
    "ConformanceReport",
    "DEFAULT_TIME_SCALE",
    "ProtocolHarness",
    "TcpHub",
    "TcpTransport",
    "asyncio_backend",
    "backend",
    "conformance_cells",
    "oracle_digest",
    "tcp_transport",
]
