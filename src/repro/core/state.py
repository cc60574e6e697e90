"""Per-participant resolution-protocol state.

Mirrors Section 4.1/4.2 of the paper: participant states ``N``, ``X``,
``S``, ``R`` and the data structures ``LE_i`` (raised exceptions), ``LO_i``
(objects owing a NestedCompleted), ``LP_i`` (acknowledgements received —
represented here as the complement, the set still awaited, which is the
quantity the ready-check needs).

A base participant's :class:`ResolutionCtx` exists only while a resolution
is in progress for one action; starting a resolution for a containing action
*replaces* the context (the paper's "empty LE_i, LO_i, LP_i" — an outer
resolution eliminates any inner one, Section 3.3 problem 4).  A variant's
member (:class:`repro.core.variants.Member`) holds one for its one action
from construction on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.exceptions.tree import ExceptionClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import AckMsg, CommitMsg


class PState(enum.Enum):
    """The four protocol states of a participating object (Section 4.2)."""

    NORMAL = "N"
    EXCEPTIONAL = "X"
    SUSPENDED = "S"
    READY = "R"

    # Members are singletons, so identity hashing is exact; unlike Enum's
    # Python-level ``__hash__`` it costs no call on the per-message
    # ``PROGRESS[ctx.state]`` lookup.
    __hash__ = object.__hash__


@dataclass
class ResolutionCtx:
    """``empty LE_i, LO_i, LP_i``: the lists of one in-progress resolution
    of one action, ``LE_i`` a dict and ``LO_i`` a set; ``LP_i`` is stored as
    its complement ``ack_awaited``, since the ready check needs who is still
    missing."""

    action: str
    state: PState = PState.NORMAL
    #: ``LE_i``: raiser name -> exception class (broadcast Exceptions plus
    #: exceptions carried by NestedCompleted messages).
    le: dict[str, ExceptionClass] = field(default_factory=dict)
    #: ``LO_i``: objects that sent HaveNested and owe a NestedCompleted.
    lo: set[str] = field(default_factory=set)
    #: Objects whose NestedCompleted has arrived.
    nested_completed: set[str] = field(default_factory=set)
    #: ``LP_i`` complement: for each of our ACK-able broadcasts
    #: (ref kind -> names we still await an ACK from).
    ack_awaited: dict[str, set[str]] = field(default_factory=dict)
    #: The Commit verdict, once received (or produced, for the resolver).
    commit: Optional["CommitMsg"] = None
    #: True once we broadcast HaveNested for this context (guards against
    #: double-triggering when both an Exception and a peer's HaveNested
    #: arrive while we are nested).
    sent_have_nested: bool = False
    #: True while our abortion chain for this context is still running.
    aborting: bool = False
    #: True once the handler was scheduled (context is consumed).
    handler_scheduled: bool = False
    #: True once this object broadcast its own Commit (resolver-group
    #: members each send one, even if another member's arrived first).
    sent_commit: bool = False
    #: True if this object raised its exception locally in this action.
    raised_local: bool = False
    #: Virtual time the context was created (resolution-latency metric).
    started_at: float = 0.0
    #: Cached :class:`~repro.core.manager.ActionInstance` and
    #: :class:`~repro.core.action.CAActionDef` for ``action`` — both are
    #: stable for the context's lifetime (instances are only replaced for
    #: nested actions after every holder has exited them), and the dispatch
    #: hot path reads ``instance.status`` / ``definition.policy`` on every
    #: protocol message.
    instance: Optional[object] = None
    definition: Optional[object] = None
    #: The only two ACK payloads this context can ever send (their fields
    #: are constants of the context): one frozen payload per ref kind,
    #: shared by the N-1 replies.
    ack_exception: Optional["AckMsg"] = None
    ack_nested_completed: Optional["AckMsg"] = None

    def raisers(self) -> list[str]:
        """Names of all objects known to have raised, sorted."""
        return sorted(self.le)
