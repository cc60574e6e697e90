"""The distributed exception-resolution algorithm (paper Section 4.2).

This engine is the paper's contribution, implemented as an event-driven
state machine per participant.  It mirrors the published pseudocode:

* local raise → state ``X``, broadcast ``Exception(A, O_i, E_i)``;
* receiving ``Exception``/``HaveNested`` while inside an action nested in
  ``A`` → broadcast ``HaveNested``, abort the nested chain innermost-first,
  then broadcast ``NestedCompleted(A, O_i, E_i)`` carrying the one
  admissible abortion-handler signal;
* every ``Exception``/``NestedCompleted`` is ACKed by its receiver;
* an ``X`` object becomes ``R`` (ready) once it holds a ``NestedCompleted``
  from everything in its ``LO`` and an ACK from every other participant;
* the ready object with the *biggest name among raisers* resolves the
  collected exceptions through the action's resolution tree and broadcasts
  ``Commit(E)``; everyone then starts the handler for the same ``E``.

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

from typing import TYPE_CHECKING, Optional

from repro.core.abortion import AbortionTask
from repro.core.action import NestedPolicy
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
from repro.core.manager import ActionStatus
from repro.core.state import PState, ResolutionCtx
from repro.exceptions.tree import ExceptionClass
from repro.net.message import Message
from repro.obs.metrics import COUNT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.participant import CAParticipant


class ResolutionProtocolError(RuntimeError):
    """An impossible protocol situation — indicates a bug, not a fault."""


class ResolutionEngine:
    """The per-participant meta-object running the Section 4.2 protocol."""

    def __init__(self, participant: "CAParticipant") -> None:
        self.p = participant
        self.ctx: Optional[ResolutionCtx] = None
        self.abortion: Optional[AbortionTask] = None
        #: Actions whose resolution committed (stragglers are drained).
        self.completed: dict[str, CommitMsg] = {}
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
        self.completed.pop(action, None)
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
        """``E_i`` is raised in ``O_i`` within its active action."""
        if action in self.completed:
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
        self._advance(ctx)

    # -- message entry point ---------------------------------------------------------

    def on_message(self, message: Message) -> None:
        # Kept as the documented entry point; the kind maps bind straight
        # to :meth:`_dispatch` (see ``Participant.attach``), which owns the
        # causal-edge bookkeeping itself.
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        payload = message.payload
        action: str = payload.action
        kind = message.kind
        ctx = self.ctx
        # Stamp the causal edge for records this message may cause.  Done
        # unconditionally (a slot write is cheaper than a trace-level
        # branch would save) and cleared in the finally below; in CPython
        # 3.11 a try/finally with no exception in flight costs nothing.
        self._cause = message.msg_id
        try:
            if ctx is not None and ctx.action == action:
                # Hot path: traffic for the resolution already in progress.
                # A live context implies the action is entered and not
                # committed here (handler completion clears the context),
                # and there is no escalation relation to examine.
                status = ctx.instance.status
                if status is ActionStatus.ABORTED:
                    self.p.trace("msg.stale", action=action, kind=kind)
                    return
                if kind == KIND_ACK and status is ActionStatus.COMPLETED:
                    self.p.trace("msg.straggler", action=action, kind=kind)
                    return
                if ctx.definition.policy is NestedPolicy.WAIT_FOR_NESTED:
                    # depth_below(action) > 0, unrolled: a live context
                    # implies this participant entered the action, so it is
                    # nested-busy iff the *innermost* entered action is a
                    # different one.
                    stack = self.p.contexts._stack
                    if (
                        stack[-1].action_name != action
                        if stack
                        else self.p.contexts.depth_below(action) > 0
                    ):
                        self.p.buffer_pending(action, message)
                        self.p.trace("msg.deferred", action=action, kind=kind)
                        return
            else:
                ctx = self._dispatch_slow(message, action)
                if ctx is None:
                    return

            if kind == KIND_EXCEPTION or kind == KIND_HAVE_NESTED:
                self._maybe_nested_trigger(ctx)

            if kind == KIND_EXCEPTION:
                self._on_exception(ctx, payload)
            elif kind == KIND_HAVE_NESTED:
                self._on_have_nested(ctx, payload)
            elif kind == KIND_NESTED_COMPLETED:
                self._on_nested_completed(ctx, payload)
            elif kind == KIND_ACK:
                self._on_ack(ctx, payload)
            elif kind == KIND_COMMIT:
                self._on_commit(ctx, payload)
            else:  # pragma: no cover - the kind map is closed
                raise ResolutionProtocolError(f"unknown kind {kind}")

            self._advance(ctx)
        finally:
            self._cause = None

    def _dispatch_slow(self, message: Message, action: str):
        """Dispatch prologue for traffic outside the current context.

        Handles stale/straggler traffic, belated buffering, Figure 1(a)
        deferral and escalation; returns the context to process the message
        under, or ``None`` when the message was consumed.
        """
        payload = message.payload
        registry = self.p.registry
        manager = self.p.action_manager

        # Stale traffic for cancelled or completed actions is dropped.
        # (One instance() lookup serves both status checks.)
        status = manager.instance(action).status
        if status is ActionStatus.ABORTED:
            self.p.trace("msg.stale", action=action, kind=message.kind)
            return None
        if (
            message.kind == KIND_ACK
            and status is ActionStatus.COMPLETED
        ):
            # An ACK overtaken by the whole exit barrier; nothing awaits it.
            self.p.trace("msg.straggler", action=action, kind=message.kind)
            return None
        if action in self.completed:
            # A suspended object may start its handler without ever needing
            # a slow peer's HaveNested/NestedCompleted (only the resolver
            # needs them all), and ACKs for our own broadcasts may likewise
            # trail the Commit.
            if message.kind == KIND_EXCEPTION:
                # A raise from the *next* incarnation of a backward-recovery
                # retry: the sender's acceptance test failed, it re-entered
                # and raised again before we processed our own retry.  The
                # raise belongs to the attempt we are about to join — buffer
                # it for processing (and ACKing) once _start_retry resets
                # this action's protocol state.  (Within one incarnation an
                # Exception cannot trail a Commit: the Commit's raiser list
                # is complete — see _maybe_start_handler.)
                self.p.buffer_pending(action, message)
                self.p.trace(
                    "msg.next_incarnation", action=action, kind=message.kind
                )
                return
            if message.kind == KIND_COMMIT:
                committed = self.completed[action]
                if (
                    committed.exception is payload.exception
                    and committed.raisers == payload.raisers
                ):
                    # Another resolver of a k-resolver group; agreed verdict.
                    self.p.trace("msg.straggler", action=action, kind=message.kind)
                    return
                raise ResolutionProtocolError(
                    f"{self.p.name}: conflicting late Commit for {action}"
                )
            if message.kind in (KIND_HAVE_NESTED, KIND_NESTED_COMPLETED, KIND_ACK):
                if message.kind == KIND_NESTED_COMPLETED:
                    # Still acknowledged — "ACK(O_i) ⇒ O_j" applies on every
                    # receipt, which is also what keeps the Section 4.4
                    # count at exactly (N-1) ACKs per NestedCompleted.
                    self.p.send(
                        payload.sender,
                        KIND_ACK,
                        AckMsg(action, self.p.name, KIND_NESTED_COMPLETED),
                    )
                self.p.trace("msg.straggler", action=action, kind=message.kind)
                return
            raise ResolutionProtocolError(
                f"{self.p.name}: {message.kind} for already-resolved {action}"
            )

        # Belated participant: buffer until this object enters the action.
        if not self.p.contexts.entered(action):
            self.p.buffer_pending(action, message)
            self.p.trace("msg.buffered", action=action, kind=message.kind)
            return

        # Figure 1(a) policy: while inside a nested action, defer the
        # containing action's resolution until the nested one completes.
        depth = self.p.contexts.depth_below(action)
        if depth > 0 and registry.get(action).policy is NestedPolicy.WAIT_FOR_NESTED:
            self.p.buffer_pending(action, message)
            self.p.trace("msg.deferred", action=action, kind=message.kind)
            return

        # Relation between this message's action and any current context.
        if self.ctx is not None and self.ctx.action != action:
            if registry.contains(self.ctx.action, action):
                # Traffic of a nested resolution that the current, more
                # containing one has eliminated.
                self.p.trace("msg.eliminated", action=action, kind=message.kind)
                return
            if not registry.contains(action, self.ctx.action):
                raise ResolutionProtocolError(
                    f"{self.p.name}: resolution contexts {self.ctx.action} and "
                    f"{action} are unrelated"
                )
            # An outer resolution overrides the one in progress.
            self._escalate_to(action)

        return self._context_for(action)

    # -- per-kind handling -------------------------------------------------------

    def _on_exception(self, ctx: ResolutionCtx, m: ExceptionMsg) -> None:
        ctx.le[m.sender] = m.exception
        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_exception)

    def _on_have_nested(self, ctx: ResolutionCtx, m: HaveNestedMsg) -> None:
        ctx.lo.add(m.sender)
        # "clean up messages related to nested actions"
        self.p.drop_pending_nested(ctx.action)

    def _on_nested_completed(self, ctx: ResolutionCtx, m: NestedCompletedMsg) -> None:
        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_nested_completed)
        ctx.nested_completed.add(m.sender)
        if m.exception is not None:
            ctx.le[m.sender] = m.exception

    def _on_ack(self, ctx: ResolutionCtx, m: AckMsg) -> None:
        awaited = ctx.ack_awaited.get(m.ref_kind)
        if awaited is not None:
            awaited.discard(m.sender)

    def _on_commit(self, ctx: ResolutionCtx, m: CommitMsg) -> None:
        if ctx.commit is not None:
            # With a resolver group (k > 1), the other resolvers' Commits
            # are expected duplicates — they must agree.
            if (
                ctx.commit.exception is m.exception
                and ctx.commit.raisers == m.raisers
            ):
                self.p.trace(
                    "msg.duplicate_commit", action=ctx.action, sender=m.sender
                )
                return
            raise ResolutionProtocolError(
                f"{self.p.name}: conflicting Commits for {ctx.action}: "
                f"{ctx.commit.exception.name()} vs {m.exception.name()}"
            )
        ctx.commit = m

    # -- context management -----------------------------------------------------------

    def _context_for(self, action: str) -> ResolutionCtx:
        if self.ctx is None:
            now = self.p.sim_now
            self.ctx = ctx = ResolutionCtx(action, started_at=now)
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

    def _escalate_to(self, action: str) -> None:
        """Replace the nested resolution context by the containing one."""
        old = self.ctx
        assert old is not None
        self.p.trace("resolution.escalate", inner=old.action, outer=action)
        if old.handler_scheduled:
            # "any activity of the nested action is stopped (including any
            # nested resolution in progress and execution of any handlers)"
            self.p.cancel_handler(old.action)
        self.ctx = None
        self._context_for(action)

    # -- the nested trigger ---------------------------------------------------------

    def _maybe_nested_trigger(self, ctx: ResolutionCtx) -> None:
        """First clause of the receive rule: "if O_i is in the action
        nested within A then ..." — broadcast HaveNested, abort the chain,
        and later broadcast NestedCompleted."""
        action = ctx.action
        # depth_below(action) == 0, unrolled as in _dispatch: the context
        # implies this participant entered the action, so it is outside any
        # nested action iff the innermost entered action is this one.
        stack = self.p.contexts._stack
        if (
            stack[-1].action_name == action
            if stack
            else self.p.contexts.depth_below(action) == 0
        ):
            return
        if ctx.sent_have_nested:
            return
        ctx.sent_have_nested = True
        ctx.aborting = True
        me = self.p.name
        self._send_many(
            me, ctx.definition.others(me), KIND_HAVE_NESTED,
            HaveNestedMsg(action, me),
        )
        # Inner actions are cancelled: never process their buffered traffic.
        self.p.drop_pending_nested(action)
        if self.abortion is not None and self.abortion.running:
            self.abortion.retarget(action, self._abortion_done)
        else:
            self.abortion = AbortionTask(self.p, action, self._abortion_done)
            self.abortion.start()

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
        self._advance(ctx)

    # -- progress ------------------------------------------------------------------

    def _advance(self, ctx: ResolutionCtx) -> None:
        """Run the state-transition checks of the algorithm's tail.

        The ready/resolve/handler checks are guarded inline (rather than
        delegated unconditionally) because ``_advance`` runs after every
        protocol message and the sub-checks almost always have nothing to
        do — see :meth:`_maybe_resolve` and :meth:`_maybe_start_handler`
        for the semantics.
        """
        if ctx is not self.ctx:
            return  # context was replaced while this event was in flight
        aborting = ctx.aborting
        if ctx.state is PState.NORMAL and not aborting:
            # Involved without being a raiser: suspended.
            self._set_state(ctx, PState.SUSPENDED)
        if (
            ctx.state is PState.EXCEPTIONAL
            and not aborting
            and ctx.lo <= ctx.nested_completed
            and not any(ctx.ack_awaited.values())
        ):
            self._set_state(ctx, PState.READY)
            self.p.trace("resolution.ready", action=ctx.action)
        if ctx.state is PState.READY and not ctx.sent_commit:
            self._maybe_resolve(ctx)
        if ctx.commit is not None:
            self._maybe_start_handler(ctx)

    def _maybe_resolve(self, ctx: ResolutionCtx) -> None:
        """The chosen raiser(s) resolve and commit.

        Base algorithm: the single biggest-named raiser.  With
        ``resolver_group_size`` k > 1, the k biggest raisers each resolve
        (identically — they hold the same LE) and each sends Commit, which
        buys tolerance of resolver crashes for a constant-factor cost.
        """
        if ctx.state is not PState.READY or ctx.sent_commit:
            return
        definition = ctx.definition
        top = sorted(ctx.le, reverse=True)[: definition.resolver_group_size]
        if self.p.name not in top:
            return
        tree = definition.tree
        resolved = tree.resolve(ctx.le.values())
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

    def _maybe_start_handler(self, ctx: ResolutionCtx) -> None:
        if ctx.commit is None or ctx.handler_scheduled:
            return
        if ctx.state is PState.READY:
            pass  # raisers (and the resolver) start once ready
        elif ctx.state is PState.SUSPENDED:
            # "wait until all exception messages are handled": every raiser
            # listed in the Commit must have been heard (and ACKed).
            if not set(ctx.commit.raisers) <= set(ctx.le):
                return
            if ctx.aborting:
                return
        else:
            return
        ctx.handler_scheduled = True
        if self._metrics is not None:
            self._metrics.histogram("resolution.latency").observe(
                self.p.sim_now - ctx.started_at
            )
        self.p.start_resolved_handler(ctx.action, ctx.commit.exception)

    def handler_finished(self, action: str) -> None:
        """The handler for the resolved exception ran; retire the context."""
        if self.ctx is None or self.ctx.action != action:
            raise ResolutionProtocolError(
                f"{self.p.name}: handler finished for {action} without context"
            )
        self.completed[action] = self.ctx.commit
        self.ctx = None
