"""repro.service — the CA-action resolution protocol as a served workload.

A long-running server (:mod:`repro.service.server`) resolves CA actions
submitted by clients over length-prefixed TCP frames, with bounded
admission, AIMD rate adaptation and explicit overload shedding; an
open-loop traffic generator (:mod:`repro.service.loadgen`) drives it with
Poisson or bursty arrivals over a heavy-tailed action-size mix.

The server keeps one :class:`~repro.service.flight.RequestRecord` per
request: the instants it reached and what ran.  An always-on
:class:`~repro.service.flight.FlightRecorder` keeps the last K of them and
dumps Chrome-trace artifacts when sheds, latency-budget breaches, stalls
or protocol errors fire.  Every request can carry a distributed-trace
context (:class:`~repro.obs.spans.TraceContext`); the server then ships
the record's span forest (:func:`~repro.service.flight.request_spans`) on
the outcome frame, stitching client send, admission queue wait, engine
execution and serialization into one causal forest.

Quick start::

    python -m repro service serve --port 9400
    python -m repro service load --port 9400 --rate 800 --duration 10
    python -m repro service trace --port 9400 --variant base -n 8
"""

from repro.service.flight import (
    TRIGGER_REASONS,
    FlightRecorder,
    RequestRecord,
    request_spans,
)
from repro.service.loadgen import (
    CONTROL_TIMEOUT,
    LoadReport,
    LoadSpec,
    fetch_server_stats,
    request_shutdown,
    run_load,
    run_traced_requests,
)
from repro.service.protocol import (
    MAX_PARTICIPANTS,
    SERVICE_VARIANTS,
    ActionOutcome,
    ActionRequest,
    ServiceProtocolError,
    execute_request,
    execute_request_traced,
    rescale_records,
)
from repro.service.server import ResolutionServer, TokenBucket

__all__ = [
    "ActionOutcome",
    "ActionRequest",
    "CONTROL_TIMEOUT",
    "FlightRecorder",
    "LoadReport",
    "LoadSpec",
    "MAX_PARTICIPANTS",
    "RequestRecord",
    "ResolutionServer",
    "SERVICE_VARIANTS",
    "ServiceProtocolError",
    "TRIGGER_REASONS",
    "TokenBucket",
    "execute_request",
    "execute_request_traced",
    "fetch_server_stats",
    "request_shutdown",
    "request_spans",
    "rescale_records",
    "run_load",
    "run_traced_requests",
]
