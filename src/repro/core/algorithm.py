"""The distributed exception-resolution algorithm (paper Section 4.2).

This engine is the paper's contribution: an event-driven state machine per
participant, written once as two tables built at import.  :data:`RECEIVE`
maps a message's relation to this participant (:data:`RELATIONS`) and its
kind to one effect, or to an explicit reject; :data:`PROGRESS` maps each of
N / X / S / R to the row run after a message whose write can enable it —
clauses (4b), (7), (8)/(9) and (10).  ``docs/ALGORITHM.md`` quotes both,
clause by clause.

Differences from a literal reading of the pseudocode are deliberate
clarifications, each grounded in the paper's own prose:

* protocol state is kept per resolution context and a context for a
  containing action *replaces* a nested one ("the lower level resolution
  performed by O_2 should be ignored when the resolution is started by O_1
  within A_1", Section 3.3 problem 4);
* ``Commit`` carries the raiser list so a suspended object can "wait until
  all exception messages are handled" with a definite termination test;
* messages for actions a participant has not yet entered are buffered until
  entry ("process messages having arrived"), supporting belated
  participants, and buffered traffic of cancelled nested actions is
  discarded ("clean up messages related to nested actions").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.abortion import AbortionTask
from repro.core.action import NestedPolicy
from repro.core.manager import ActionStatus
from repro.core.messages import (
    KIND_ACK,
    KIND_COMMIT,
    KIND_EXCEPTION,
    KIND_HAVE_NESTED,
    KIND_NESTED_COMPLETED,
    AckMsg,
    CommitMsg,
    ExceptionMsg,
    HaveNestedMsg,
    NestedCompletedMsg,
)
from repro.core.state import PState, ResolutionCtx
from repro.exceptions.tree import ExceptionClass
from repro.net.message import Message
from repro.obs.metrics import COUNT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.participant import CAParticipant
    from repro.exceptions.context import ExceptionContext


class ResolutionProtocolError(RuntimeError):
    """An impossible protocol situation — indicates a bug, not a fault."""


class ResolutionEngine:
    """The per-participant meta-object running the Section 4.2 protocol."""

    def __init__(self, participant: "CAParticipant") -> None:
        self.p = participant
        self.ctx: Optional[ResolutionCtx] = None
        self.abortion: Optional[AbortionTask] = None
        #: True when the trace level is FULL (set by the participant's
        #: attach()): the one test guarding the FULL-only ``state`` records.
        self._full = False
        #: The runtime's metrics registry (None until attached).
        self._metrics = None
        #: msg_id of the message currently being processed — the ``cause``
        #: detail of the trace records its processing writes.
        self._cause: Optional[int] = None
        #: Bound ``network.send``/``network.send_many`` (rebound at
        #: participant attach); protocol send sites call them directly,
        #: skipping the DistributedObject.send wrapper on the hottest
        #: frames.  Broadcasts go through ``_send_many`` so the network can
        #: hoist the per-send constants out of the loop.
        self._send = self._send_detached
        self._send_many = self._send_many_detached

    def _send_detached(self, src: str, dst: str, kind: str, payload: object):
        # Pre-attach fallback; replaced by the runtime's network.send.
        return self.p.send(dst, kind, payload)

    def _send_many_detached(
        self, src: str, dsts, kind: str, payload: object
    ):
        # Pre-attach fallback; replaced by the runtime's network.send_many.
        return self.p.send_many(dsts, kind, payload)

    # -- queries -------------------------------------------------------------

    def resolving_action(self) -> Optional[str]:
        return self.ctx.action if self.ctx is not None else None

    def state(self) -> PState:
        """The participant's protocol state (``N`` outside resolutions)."""
        return self.ctx.state if self.ctx is not None else PState.NORMAL

    def forget_action(self, action: str) -> None:
        """Called when the participant exits ``action``."""
        if self.ctx is not None and self.ctx.action == action:
            self.ctx = None

    def _set_state(self, ctx: ResolutionCtx, state: PState) -> None:
        """Transition the protocol state (a ``state`` record at FULL)."""
        if ctx.state is state:
            return
        ctx.state = state
        if self._full:
            self.p.trace(
                "state", action=ctx.action, state=state.value, cause=self._cause
            )

    # -- local raise ------------------------------------------------------------

    def local_raise(self, action: str, exception: ExceptionClass) -> None:
        """``E_i`` is raised in ``O_i`` within its active action:
        ``S(O_i) := X``, ``le[O_i]`` records it, the Exception goes to every
        other member with ``ack_awaited[EXCEPTION]`` armed, and the
        behaviour is interrupted (termination model)."""
        if self.p.contexts.find(action).committed is not None:
            raise ResolutionProtocolError(
                f"{self.p.name}: raise after committed resolution in {action}"
            )
        ctx = self._context_for(action)
        self._set_state(ctx, PState.EXCEPTIONAL)
        ctx.raised_local = True
        ctx.le[self.p.name] = exception
        self.p.trace("raise", action=action, exception=exception.name())
        me = self.p.name
        others = ctx.definition.others(me)
        ctx.ack_awaited[KIND_EXCEPTION] = set(others)
        # One frozen payload shared by the whole broadcast (N-1 sends).
        self._send_many(me, others, KIND_EXCEPTION, ExceptionMsg(action, me, exception))
        self.p.interrupt_behaviour()
        PROGRESS[ctx.state](self, ctx)

    # -- the receive rule ---------------------------------------------------------

    def _dispatch(self, message: Message) -> None:
        """Receive one protocol message: classify it, run its ``RECEIVE``
        row and, when that row returns a context, its ``PROGRESS`` row."""
        action: str = message.payload.action
        ctx = self.ctx
        # Stamp the causal edge for records this message may cause.  Done
        # unconditionally (a slot write is cheaper than a trace-level
        # branch would save) and cleared in the finally below; in CPython
        # 3.11 a try/finally with no exception in flight costs nothing.
        self._cause = message.msg_id
        try:
            if (
                ctx is not None
                and ctx.action == action
                and ctx.instance.status is ActionStatus.RUNNING
            ):
                # Hot path.  A live context implies the action is entered, so
                # the participant is nested-busy iff its innermost action is
                # another one (the one unrolled form of that test).
                if self.p.contexts._stack[-1].action_name == action:
                    relation = "live"
                elif ctx.definition.policy is NestedPolicy.WAIT_FOR_NESTED:
                    relation = "deferred"
                else:
                    relation = "nested"
            else:
                relation = self._relation(action, message.kind)
            ctx = RECEIVE[relation, message.kind](self, ctx, message)
            if ctx is not None:
                PROGRESS[ctx.state](self, ctx)
        finally:
            self._cause = None

    def _relation(self, action: str, kind: str) -> str:
        """The rest of the prologue: what ``action`` is to this participant,
        for a message the hot path did not classify."""
        status = self.p.action_manager.instance(action).status
        if status is ActionStatus.ABORTED:
            return "stale"
        if status is ActionStatus.COMPLETED and kind == KIND_ACK:
            return "straggler"
        contexts = self.p.contexts
        record = contexts.find(action)
        if record is None:
            return "belated"
        if record.committed is not None:
            return "resolved"
        nested = record is not contexts._stack[-1]
        registry = self.p.registry
        if nested and registry.get(action).policy is NestedPolicy.WAIT_FOR_NESTED:
            return "deferred"
        ctx = self.ctx
        if ctx is None:
            return "fresh"
        if ctx.action == action:
            return "nested" if nested else "live"
        if registry.contains(ctx.action, action):
            return "eliminated"
        if registry.contains(action, ctx.action):
            return "outer"
        return "unrelated"

    # -- RECEIVE effects: (ctx, message) -> the context to advance, or None once
    # the message is consumed or when its write cannot enable the state's row.
    # Each docstring opens with its clause; one that can skip the row ends with why.

    def _on_exception(
        self, ctx: ResolutionCtx, message: Message
    ) -> Optional[ResolutionCtx]:
        """(4c) ``<A, O_j, E_j> -> LE_i; ACK => O_j``.  LE enables no row in X
        (its guard does not read LE), nor in S until a Commit is held."""
        m: ExceptionMsg = message.payload
        ctx.le[m.sender] = m.exception
        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_exception)
        state = ctx.state
        if state is PState.EXCEPTIONAL or (
            state is PState.SUSPENDED and ctx.commit is None
        ):
            return None
        return ctx

    def _on_have_nested(
        self, ctx: ResolutionCtx, message: Message
    ) -> Optional[ResolutionCtx]:
        """(4c) ``<O_j, A> -> LO_i``; "clean up messages related to nested
        actions" deletes what is buffered for every action nested in A.  More
        LO only delays X's guard, and S's does not read LO: neither row runs."""
        ctx.lo.add(message.payload.sender)
        if self.p.pending:
            self.p.drop_pending_nested(ctx.action)
        state = ctx.state
        if state is PState.EXCEPTIONAL or state is PState.SUSPENDED:
            return None
        return ctx

    def _on_nested_completed(
        self, ctx: ResolutionCtx, message: Message
    ) -> Optional[ResolutionCtx]:
        """(5) ``ACK => O_j``; if ``E_j /= null`` then ``<A, O_j, E_j> -> LE_i``
        (the pseudocode's ``E_i`` here is read as ``E_j``, an evident typo).
        S's guard reads neither write until a Commit is held."""
        m: NestedCompletedMsg = message.payload
        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_nested_completed)
        ctx.nested_completed.add(m.sender)
        if m.exception is not None:
            ctx.le[m.sender] = m.exception
        if ctx.state is PState.SUSPENDED and ctx.commit is None:
            return None
        return ctx

    def _on_ack(self, ctx: ResolutionCtx, message: Message) -> Optional[ResolutionCtx]:
        """(6) ``<O_j> -> LP_i``, kept as its complement: the sender leaves
        ``ack_awaited`` of the broadcast the ACK's ``ref_kind`` names.  Only
        the last ACK of a set can enable X's guard; no other row reads it."""
        m: AckMsg = message.payload
        awaited = ctx.ack_awaited.get(m.ref_kind)
        if awaited is not None:
            awaited.discard(m.sender)
            if awaited:
                return None
        return ctx

    def _on_commit(self, ctx: ResolutionCtx, message: Message) -> ResolutionCtx:
        """(9)/(10) ``commit(E)`` kept for the state's row; a resolver
        group's (k > 1) other Commits are duplicates and must agree."""
        m: CommitMsg = message.payload
        held = ctx.commit
        if held is None:
            ctx.commit = m
        elif held.exception is m.exception and held.raisers == m.raisers:
            self.p.trace("msg.duplicate_commit", action=ctx.action, sender=m.sender)
        else:
            raise ResolutionProtocolError(
                f"{self.p.name}: conflicting Commits for {ctx.action}: "
                f"{held.exception.name()} vs {m.exception.name()}"
            )
        return ctx

    def _abort_nested(self, ctx: ResolutionCtx, message: Message) -> ResolutionCtx:
        """(4a) ``HaveNested(O_i, A) => all`` and abort the nested chain
        innermost-first (once per context; its end broadcasts NestedCompleted
        with the last handler's signal), then receive the message as live."""
        if not ctx.sent_have_nested:
            ctx.sent_have_nested = True
            ctx.aborting = True
            action, me = ctx.action, self.p.name
            others = ctx.definition.others(me)
            self._send_many(me, others, KIND_HAVE_NESTED, HaveNestedMsg(action, me))
            # Inner actions are cancelled: never process their buffered traffic.
            self.p.drop_pending_nested(action)
            if self.abortion is not None and self.abortion.running:
                self.abortion.retarget(action, self._abortion_done)
            else:
                self.abortion = AbortionTask(self.p, action, self._abortion_done)
                self.abortion.start()
        return RECEIVE["live", message.kind](self, ctx, message)

    def _join(self, ctx: Optional[ResolutionCtx], message: Message) -> None:
        """(4) Open A's context (state N, the behaviour interrupted), then
        receive the message again."""
        self._context_for(message.payload.action)
        self._dispatch(message)

    def _escalate(self, ctx: ResolutionCtx, message: Message) -> None:
        """(4a) ``empty LE_i, LO_i, LP_i``: the nested resolution's context
        is discarded whole and its handler stopped (Section 3.3 problem 4),
        then the message is received as ``fresh``."""
        action = message.payload.action
        self.p.trace("resolution.escalate", inner=ctx.action, outer=action)
        if ctx.handler_scheduled:
            self.p.cancel_handler(ctx.action)
        self.ctx = None
        self._join(None, message)

    def _ack_late(self, ctx: Optional[ResolutionCtx], message: Message) -> None:
        """(5) Still ``ACK => O_j`` after the handler ran (only the resolver
        needs every NestedCompleted), keeping the Section 4.4 count exact."""
        m: NestedCompletedMsg = message.payload
        self.p.send(m.sender, KIND_ACK, AckMsg(m.action, self.p.name, KIND_NESTED_COMPLETED))
        self.p.trace("msg.straggler", action=m.action, kind=message.kind)

    def _late_commit(self, ctx: Optional[ResolutionCtx], message: Message) -> None:
        """(9)/(10) A resolver group's other Commit after the handler ran:
        dropped if it agrees, a protocol error if not."""
        m: CommitMsg = message.payload
        committed = self.p.contexts.find(m.action).committed
        if committed.exception is not m.exception or committed.raisers != m.raisers:
            raise ResolutionProtocolError(
                f"{self.p.name}: conflicting late Commit for {m.action}"
            )
        self.p.trace("msg.straggler", action=m.action, kind=message.kind)

    def _reject(self, ctx: Optional[ResolutionCtx], message: Message) -> None:
        """reject: the pair cannot occur; a protocol error, not a fault."""
        action = message.payload.action
        raise ResolutionProtocolError(f"{self.p.name}: impossible {message} for {action}")

    # -- context management -----------------------------------------------------------

    def _context_for(self, action: str) -> ResolutionCtx:
        if self.ctx is None:
            self.ctx = ctx = ResolutionCtx(action, started_at=self.p.sim_now)
            ctx.instance = self.p.action_manager.instance(action)
            ctx.definition = self.p.registry.get(action)
            me = self.p.name
            ctx.ack_exception = AckMsg(action, me, KIND_EXCEPTION)
            ctx.ack_nested_completed = AckMsg(action, me, KIND_NESTED_COMPLETED)
            if self._metrics is not None:
                self._metrics.counter("resolution.contexts").inc()
            self.p.trace("resolution.join", action=action, cause=self._cause)
            if self._full:
                self.p.trace("state", action=action, state=ctx.state.value)
            self.p.interrupt_behaviour()
        elif self.ctx.action != action:  # pragma: no cover - guarded by caller
            raise ResolutionProtocolError("context mismatch")
        return self.ctx

    def _abortion_done(self, signal: Optional[ExceptionClass]) -> None:
        ctx = self.ctx
        if ctx is None:  # pragma: no cover - abortion only runs with a ctx
            raise ResolutionProtocolError("abortion completed without context")
        ctx.aborting = False
        me = self.p.name
        others = ctx.definition.others(me)
        ctx.ack_awaited[KIND_NESTED_COMPLETED] = set(others)
        self._send_many(
            me, others, KIND_NESTED_COMPLETED,
            NestedCompletedMsg(ctx.action, me, signal),
        )
        if signal is not None:
            ctx.le[self.p.name] = signal
            self._set_state(ctx, PState.EXCEPTIONAL)
        elif ctx.state is PState.NORMAL:
            self._set_state(ctx, PState.SUSPENDED)
        PROGRESS[ctx.state](self, ctx)

    # -- PROGRESS rows: the algorithm's tail, run after a write that may enable one --

    def _progress_n(self, ctx: ResolutionCtx) -> None:
        """(4b) ``if S(O_i) = N then S(O_i) := S``, once its own abortion
        chain (if any) is over."""
        if not ctx.aborting:
            self._set_state(ctx, PState.SUSPENDED)
            self._progress_s(ctx)

    def _progress_x(self, ctx: ResolutionCtx) -> None:
        """(7) ``X -> R`` with NestedCompleted from all of ``LO_i``, every ACK
        and its own abortion chain over.  A Commit does not shortcut this: a
        crashed peer's missing ACK stalls a raiser holding one (decision 8)."""
        if (
            not ctx.aborting
            and ctx.lo <= ctx.nested_completed
            and not any(ctx.ack_awaited.values())
        ):
            self._set_state(ctx, PState.READY)
            self.p.trace("resolution.ready", action=ctx.action)
            self._progress_r(ctx)

    def _progress_r(self, ctx: ResolutionCtx) -> None:
        """(8) The biggest raiser (k biggest: ``resolver_group_size``) resolves
        ``LE_i``, complete as FIFO puts each Exception before its ACK, and
        commits; (9) with the Commit held, start the handler for E."""
        if not ctx.sent_commit:
            top = sorted(ctx.le, reverse=True)[: ctx.definition.resolver_group_size]
            if self.p.name in top:
                self._commit(ctx)
        if ctx.commit is not None and not ctx.handler_scheduled:
            self._start_handler(ctx)

    def _progress_s(self, ctx: ResolutionCtx) -> None:
        """(10) "wait until all exception messages are handled": start the
        handler once ``commit.raisers ⊆ LE_i``."""
        commit = ctx.commit
        if commit is None or ctx.handler_scheduled or ctx.aborting:
            return
        if set(commit.raisers) <= set(ctx.le):
            self._start_handler(ctx)

    def _commit(self, ctx: ResolutionCtx) -> None:
        # Every resolver of a group holds the same LE and commits the same E.
        definition = ctx.definition
        resolved = definition.tree.resolve(ctx.le.values())
        commit = CommitMsg(
            ctx.action, self.p.name, resolved, raisers=tuple(ctx.raisers())
        )
        ctx.sent_commit = True
        if ctx.commit is None:
            ctx.commit = commit
        elif ctx.commit.exception is not resolved:
            raise ResolutionProtocolError(
                f"{self.p.name}: resolved {resolved.name()} but already "
                f"holds Commit for {ctx.commit.exception.name()}"
            )
        self.p.trace(
            "resolution.commit", action=ctx.action, exception=resolved.name(),
            raisers=",".join(commit.raisers), cause=self._cause,
        )
        if self._metrics is not None:
            self._metrics.counter("resolution.commits").inc()
            self._metrics.histogram("resolution.rounds", COUNT_BUCKETS).observe(
                len(commit.raisers)
            )
        me = self.p.name
        self._send_many(me, definition.others(me), KIND_COMMIT, commit)

    def _start_handler(self, ctx: ResolutionCtx) -> None:
        ctx.handler_scheduled = True
        if self._metrics is not None:
            self._metrics.histogram("resolution.latency").observe(
                self.p.sim_now - ctx.started_at
            )
        self.p.start_resolved_handler(ctx.action, ctx.commit.exception)

    def handler_finished(self, record: "ExceptionContext") -> None:
        """The handler for the resolved exception ran: its Commit becomes
        the verdict on A's record, and the context retires."""
        ctx = self.ctx
        if ctx is None or ctx.action != record.action_name:
            raise ResolutionProtocolError(
                f"{self.p.name}: handler finished for {record.action_name} without context"
            )
        record.committed = ctx.commit
        self.ctx = None


# -- the tables ------------------------------------------------------------------

#: The protocol kinds in the pseudocode's order: the columns of RECEIVE.
KINDS = (KIND_EXCEPTION, KIND_HAVE_NESTED, KIND_NESTED_COMPLETED, KIND_ACK, KIND_COMMIT)

#: What a message's action A is to this participant; ``_dispatch`` picks one.
RELATIONS = {
    "live": "A's resolution is in progress here",
    "nested": "as `live`, and this participant sits in an action nested in A, which A aborts",
    "deferred": "as `nested`, but A waits for its nested actions (`WAIT_FOR_NESTED`)",
    "stale": "A was aborted",
    "straggler": "an ACK for A, whose exit barrier has completed",
    "resolved": "this participant's handler for A's resolution has run",
    "belated": "this participant has not entered A (yet)",
    "eliminated": "A is nested in the action resolving here",
    "outer": "A contains the action resolving here",
    "fresh": "no resolution is in progress here",
    "unrelated": "neither A nor the action resolving here contains the other",
}


def _consume(verb: str, category: str, doc: str) -> Callable:
    """A RECEIVE effect that records ``category`` and consumes the message,
    buffering it for later when ``verb`` is ``hold``."""

    def effect(engine, ctx, message) -> None:
        if verb == "hold":
            engine.p.buffer_pending(message.payload.action, message)
        engine.p.trace(category, action=message.payload.action, kind=message.kind)

    effect.__name__, effect.__doc__ = f"{verb} {category}", doc
    return effect


_E, _ALL = ResolutionEngine, len(KINDS)
_stale = _consume("drop", "msg.stale", "(4) Traffic of an aborted action is never processed.")
_belated = _consume("hold", "msg.buffered", "(4) Held until A is entered; (1) processes it.")
_deferred = _consume("hold", "msg.deferred", "(4) Figure 1(a): held until the nested action exits.")
_eliminated = _consume(
    "drop", "msg.eliminated", "(4a) Traffic of a nested resolution the one here eliminated."
)
_straggler = _consume(
    "drop", "msg.straggler",
    "(4) Nothing awaits it: an ACK overtaken by the exit barrier, or a HaveNested or "
    "ACK trailing the Commit.",
)
_next_attempt = _consume(
    "hold", "msg.next_incarnation",
    "(4) A raise of the next backward-recovery attempt (within one attempt no Exception "
    "trails the Commit, whose raiser list is complete): held for this participant's retry.",
)

#: The receive rule: one row per relation, one column per :data:`KINDS`.
_RECEIVE_ROWS: dict[str, tuple[Callable, ...]] = {
    "live": (
        _E._on_exception, _E._on_have_nested, _E._on_nested_completed, _E._on_ack,
        _E._on_commit,
    ),
    "nested": (
        _E._abort_nested, _E._abort_nested, _E._on_nested_completed, _E._on_ack,
        _E._on_commit,
    ),
    "deferred": (_deferred,) * _ALL,
    "stale": (_stale,) * _ALL,
    "straggler": (_E._reject, _E._reject, _E._reject, _straggler, _E._reject),
    "resolved": (_next_attempt, _straggler, _E._ack_late, _straggler, _E._late_commit),
    "belated": (_belated,) * _ALL,
    "eliminated": (_eliminated,) * _ALL,
    "outer": (_E._escalate,) * _ALL,
    "fresh": (_E._join,) * _ALL,
    "unrelated": (_E._reject,) * _ALL,
}

#: ``(relation, kind)`` -> effect: the receive rule compiled at import.
RECEIVE: dict[tuple[str, str], Callable] = {
    (relation, kind): effect
    for relation, row in _RECEIVE_ROWS.items()
    for kind, effect in zip(KINDS, row)
}

#: Protocol state -> the row that advances it after a write that can enable it.
PROGRESS: dict[PState, Callable] = {
    PState.NORMAL: _E._progress_n,
    PState.EXCEPTIONAL: _E._progress_x,
    PState.SUSPENDED: _E._progress_s,
    PState.READY: _E._progress_r,
}
