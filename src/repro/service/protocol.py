"""Service wire protocol: action requests, outcomes, and their execution.

The resolution service speaks the same length-prefixed frame codec as the
:mod:`repro.rt.tcp` hub: a JSON header per frame and nothing else — the
codec has no mode that unpickles, so no byte a client sends is ever
executed.  Every frame header carries a ``"type"``:

client → server
    ``submit``     one CA-action request (see :class:`ActionRequest`);
    ``stats``      live :class:`~repro.obs.metrics.MetricsRegistry`
                   snapshot, ``format`` ``"json"`` (default) or ``"text"``;
    ``ping``       liveness probe;
    ``shutdown``   ask the server to drain and stop (localhost research
                   service — there is no auth layer to hide this behind).

server → client
    ``outcome``    the resolution result for one accepted ``submit``;
    ``overloaded`` the request was shed at admission (``reason``: ``stopping``,
                   ``queue-full`` or ``rate``), so clients can count goodput vs shed;
    ``stats`` / ``pong`` / ``error`` / ``bye``.

Execution runs the *actual* protocol engines — each accepted request
builds and runs a deterministic simulation of the requested CA action
(variant, participants, raisers, nested members) at ``TraceLevel.COUNTS``,
then reduces it to an :class:`ActionOutcome`: resolved exception, handler
activations, commit/abort status, resolution message count.  COUNTS keeps
the per-action cost at a fraction of a millisecond for the small actions
that dominate a heavy-tailed mix; outcomes are extracted from the engine
state (managers, participants, network counters), never from FULL traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.variants import SERVABLE, VARIANTS, run_action
from repro.simkernel.trace import TraceLevel

#: Protocol variants the service can run: the servable rows of
#: :data:`repro.core.variants.VARIANTS`.
SERVICE_VARIANTS = SERVABLE

#: Hard ceiling on participants per served action.  An N=128 action costs
#: tens of milliseconds of engine time; anything bigger belongs in the
#: batch campaign harness, not a live service.
MAX_PARTICIPANTS = 128


class ServiceProtocolError(ValueError):
    """A malformed or out-of-bounds service request header."""


@dataclass(frozen=True)
class ActionRequest:
    """One CA action to resolve on behalf of a client.

    ``n``/``p``/``q`` follow the paper's Section 4.4 workload shape:
    ``n`` participants of whom ``p`` raise concurrently and ``q`` sit in
    nested actions (``p + q <= n``; a variant that does not nest ignores
    ``q`` — it is flat by construction).
    """

    id: int
    variant: str = "base"
    n: int = 3
    p: int = 1
    q: int = 0
    seed: int = 0
    #: Opt into an engine-level span forest: the request's resolution runs
    #: at ``TraceLevel.FULL`` and the server grafts the protocol spans
    #: under the request's execute span (and ships them back to a tracing
    #: client).  Off by default — FULL costs real time per action.
    trace: bool = False

    @staticmethod
    def from_header(header: dict) -> "ActionRequest":
        """Validate and build a request from a ``submit`` frame header."""
        try:
            req_id = int(header["id"])
        except (KeyError, TypeError, ValueError):
            raise ServiceProtocolError(
                f"submit needs an integer 'id': {header!r}"
            ) from None
        variant = header.get("variant", "base")
        if variant not in SERVICE_VARIANTS:
            raise ServiceProtocolError(
                f"unknown variant {variant!r} (expected one of {SERVICE_VARIANTS})"
            )
        try:
            n = int(header.get("n", 3))
            p = int(header.get("p", 1))
            q = int(header.get("q", 0))
            seed = int(header.get("seed", 0))
        except (TypeError, ValueError):
            raise ServiceProtocolError(
                f"non-integer action shape in {header!r}"
            ) from None
        if not 1 <= n <= MAX_PARTICIPANTS:
            raise ServiceProtocolError(
                f"n={n} outside [1, {MAX_PARTICIPANTS}]"
            )
        if not 1 <= p <= n:
            raise ServiceProtocolError(f"p={p} outside [1, n={n}]")
        if not 0 <= q <= n - p:
            raise ServiceProtocolError(f"q={q} outside [0, n-p={n - p}]")
        # Like the TraceContext fields, ``trace`` degrades rather than
        # rejects: any truthy value opts in, garbage opts out.
        return ActionRequest(
            id=req_id, variant=variant, n=n, p=p, q=q, seed=seed,
            trace=bool(header.get("trace", False)),
        )

    def to_header(self) -> dict:
        header = {
            "type": "submit", "id": self.id, "variant": self.variant,
            "n": self.n, "p": self.p, "q": self.q, "seed": self.seed,
        }
        if self.trace:
            header["trace"] = True
        return header


@dataclass(frozen=True)
class ActionOutcome:
    """What resolving one action produced (the ``outcome`` frame body)."""

    id: int
    variant: str
    status: str  # "committed" | "stalled"
    exception: Optional[str]  # resolved exception class name
    handlers: int  # participants that activated the resolved handler
    messages: int  # resolution messages (mc: multicast operations)
    sim_duration: float  # virtual time the action took

    def to_header(self) -> dict:
        return {
            "type": "outcome", "id": self.id, "variant": self.variant,
            "status": self.status, "exception": self.exception,
            "handlers": self.handlers, "messages": self.messages,
            "sim_duration": self.sim_duration,
        }

    @staticmethod
    def from_header(header: dict) -> "ActionOutcome":
        return ActionOutcome(
            id=int(header["id"]), variant=header["variant"],
            status=header["status"], exception=header.get("exception"),
            handlers=int(header["handlers"]), messages=int(header["messages"]),
            sim_duration=float(header["sim_duration"]),
        )


# -- execution --------------------------------------------------------------------


def _execute(
    request: ActionRequest, trace_level: TraceLevel
) -> tuple[ActionOutcome, object]:
    spec = VARIANTS[request.variant]
    run = run_action(
        request.variant, request.n, request.p,
        request.q if spec.nests else 0,
        seed=request.seed, until=spec.horizon, trace_level=trace_level,
    )
    handled = run.handled()
    names = sorted(set(handled.values()))
    committed = names and len(handled) == len(run.participants)
    return ActionOutcome(
        id=request.id, variant=request.variant,
        status="committed" if committed else "stalled",
        exception=names[0] if names else None, handlers=len(handled),
        messages=run.messages(), sim_duration=run.duration,
    ), run.runtime


def execute_request(request: ActionRequest) -> ActionOutcome:
    """Run one action's resolution protocol to completion, synchronously.

    Deterministic given ``(variant, n, p, q, seed)`` — the service is a
    stateless resolution oracle, so retried requests are idempotent.
    """
    outcome, _runtime = _execute(request, TraceLevel.COUNTS)
    return outcome


def execute_request_traced(
    request: ActionRequest,
) -> tuple[ActionOutcome, list[dict]]:
    """Like :func:`execute_request`, but at FULL trace.

    Returns the outcome plus the engine's causal span forest as serialized
    records (virtual-time timestamps — see :func:`rescale_records` for
    mapping them onto a wall-clock window).
    """
    outcome, runtime = _execute(request, TraceLevel.FULL)
    return outcome, runtime.spans.to_records()


def rescale_records(
    records: list[dict], wall_start: float, wall_end: float, vt_end: float
) -> list[dict]:
    """Map virtual-time span records onto a wall-clock window, in place.

    The engine ran in virtual time ``[0, vt_end]`` during the wall window
    ``[wall_start, wall_end]``; each record's timestamps are scaled
    linearly onto that window so the engine forest nests correctly inside
    a wall-clock execute span.  The original virtual times are preserved
    as ``vt_start``/``vt_end`` attrs.
    """
    scale = (wall_end - wall_start) / vt_end if vt_end > 0 else 0.0
    for record in records:
        start = record.get("start")
        if not isinstance(start, (int, float)):
            continue
        attrs = record.setdefault("attrs", {})
        attrs["vt_start"] = start
        record["start"] = wall_start + start * scale
        end = record.get("end")
        if isinstance(end, (int, float)):
            attrs["vt_end"] = end
            record["end"] = wall_start + end * scale
    return records
