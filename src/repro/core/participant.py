"""Participating objects of CA actions.

A :class:`CAParticipant` is a distributed object that can enter and leave
CA actions, raise exceptions within them, and take part in distributed
exception resolution.  The resolution protocol itself lives in
:class:`repro.core.algorithm.ResolutionEngine`, attached to the participant
in the meta-object style the paper suggests for implementations
(Section 4.5: "The algorithm can be programmed as a meta-protocol
connecting a set of meta-objects: one for each CA action participant").

The participant owns everything that is *not* the resolution algorithm:

* the exception-context stack (``SA_i``): one record per entered action,
  holding all this participant keeps about it, popped by one exit,
* buffering of messages for actions not yet entered (belated
  participants, Section 3.3 problem 3),
* the synchronous exit barrier ("leave A synchronously", Section 4.2),
  kept on the action's record,
* running exception handlers and signalling failures to containing actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.core.abortion import AbortionHandler
from repro.core.action import ActionRegistry
from repro.core.manager import ActionStatus, CAActionManager
from repro.core.messages import KIND_DONE, DoneMsg
from repro.exceptions.context import ExceptionContext, ExceptionContextStack
from repro.exceptions.handlers import HandlerOutcome, HandlerSet
from repro.exceptions.tree import ExceptionClass
from repro.net.message import Message
from repro.objects.base import DistributedObject

#: Outcomes reported through ``on_action_exit``.
EXIT_COMPLETED = "completed"
EXIT_FAILED = "failed"


class ProtocolViolation(RuntimeError):
    """The participant was driven in a way the model forbids."""


@dataclass(frozen=True)
class HandlerExecution:
    """One handler run, as recorded in a participant's ``handler_log``.

    ``attempt`` is the action's own backward-recovery attempt;
    ``incarnation`` additionally encodes every enclosing action's attempt
    (outermost first, dot-separated), so two runs of a nested action under
    different retries of its parent are distinguishable.
    """

    time: float
    action: str
    exception: str
    outcome: str
    attempt: int = 1
    incarnation: str = "1"


class ActionUnavailableError(RuntimeError):
    """A belated participant tried to enter an already-aborted action.

    Not a protocol violation: the paper's abortion rules explicitly do not
    wait for belated participants (Section 4.1), so an object can
    legitimately arrive at the entry of an action that no longer exists.
    The behaviour layer skips the dead block; the outer resolution that
    caused the abortion necessarily involves this object too and will take
    over its activity.
    """


class CAParticipant(DistributedObject):
    """A participating object with an attached resolution engine."""

    def __init__(
        self,
        name: str,
        registry: ActionRegistry,
        action_manager: CAActionManager,
        handler_sets: Mapping[str, HandlerSet],
        abortion_handlers: Mapping[str, AbortionHandler] | None = None,
    ) -> None:
        """Create a participant.

        Args:
            name: unique object name (its position in the lexicographic
                order decides resolver election).
            registry: the scenario's action declarations.
            action_manager: the centralized CA action manager.
            handler_sets: per-action complete handler sets; every action
                this object participates in must be present (checked at
                entry).
            abortion_handlers: per-nested-action abortion handlers; actions
                without an entry get a silent zero-duration handler.
        """
        super().__init__(name)
        self.registry = registry
        self.action_manager = action_manager
        self.handler_sets = dict(handler_sets)
        self.abortion_handlers = dict(abortion_handlers or {})
        self.contexts = ExceptionContextStack()
        #: Traffic for what is not reached yet, replayed on entry or retry:
        #: messages for an action not entered, DONEs of a faster peer's
        #: next attempt (the epochs of Figure 2(b)'s backward-recovery
        #: retries), and messages deferred by the WAIT_FOR_NESTED policy.
        self.pending: dict[str, list[Message]] = {}
        #: Hook called when the action's acceptance test fails and a new
        #: attempt starts: (action, next_attempt).
        self.on_action_retry: Callable[[str, int], None] = (
            lambda action, attempt: None
        )
        #: Chronological record of handler executions.  Tests assert the
        #: paper's "same handlers are called in all participating objects"
        #: on this.
        self.handler_log: list[HandlerExecution] = []
        #: Hook called when the behaviour must stop (termination model).
        self.on_interrupt: Callable[[], None] = lambda: None
        #: Hook called when an action is exited: (action, outcome, exc).
        self.on_action_exit: Callable[
            [str, str, Optional[ExceptionClass]], None
        ] = lambda action, outcome, exc: None

        # Engine import is deferred to dodge the module cycle.
        from repro.core.algorithm import KINDS, ResolutionEngine

        self.engine = ResolutionEngine(self)
        # The engine's dispatcher is registered directly (not via a
        # participant wrapper method): protocol messages are the hot kinds,
        # and the wrapper frame is pure overhead.
        for kind in KINDS:
            self.on_kind(kind, self.engine._dispatch)
        self.on_kind(KIND_DONE, self._on_done)

    # -- small helpers -------------------------------------------------------

    def attach(self, runtime) -> None:
        super().attach(runtime)
        self.engine._full = runtime.trace._full
        self.engine._metrics = runtime.metrics
        # Bind the network's send directly for the protocol hot paths (the
        # DistributedObject.send wrapper only re-derives these arguments).
        self.engine._send = runtime.network.send
        self.engine._send_many = runtime.network.send_many

    def _unwire(self) -> None:
        """The engine's link back, its abortion task (which holds this
        participant) and the behaviour's hooks, bound to its runner."""
        engine = self.engine
        engine.p = engine.abortion = None
        self.on_interrupt = self.on_action_exit = self.on_action_retry = None

    def trace(self, category: str, **details: object) -> None:
        runtime = self.runtime
        if runtime is not None:
            runtime.trace.record(runtime.sim.now, category, self.name, **details)

    def handler_set_for(self, action: str) -> HandlerSet:
        try:
            return self.handler_sets[action]
        except KeyError:
            raise ProtocolViolation(
                f"{self.name} has no handler set for action {action}"
            ) from None

    def abortion_handler_for(self, action: str) -> AbortionHandler:
        return self.abortion_handlers.get(action, AbortionHandler.silent())

    @property
    def active_action(self) -> Optional[str]:
        active = self.contexts.active
        return active.action_name if active else None

    # -- action entry/exit API (called by behaviours) ---------------------------

    def enter_action(self, action: str) -> None:
        """``<A> -> SA_i``: push A's record, at attempt 1 with nothing sent,
        then process the messages, DONEs included, buffered for A while
        this participant had not entered it ("process messages having
        arrived").

        Objects "may enter a CA action asynchronously" (Section 4).
        """
        definition = self.registry.get(action)
        if definition.parent is not None and self.active_action != definition.parent:
            raise ProtocolViolation(
                f"{self.name} cannot enter {action}: its parent "
                f"{definition.parent} is not the active action"
            )
        if definition.parent is None and self.contexts.active is not None:
            raise ProtocolViolation(
                f"{self.name} cannot enter top-level {action} while inside "
                f"{self.active_action}"
            )
        handlers = self.handler_set_for(action)
        handlers.validate_complete(definition.tree)
        if self.action_manager.is_cancelled(action):
            self.trace("action.enter_refused", action=action)
            raise ActionUnavailableError(
                f"{self.name} arrived belatedly at {action}, which has "
                "already been aborted"
            )
        self.action_manager.note_entered(action, self.name, self.sim_now)
        self.contexts.push(ExceptionContext(action, definition.tree, handlers))
        self.trace("action.enter", action=action)
        self._process_pending(action)

    def request_leave(self, action: str) -> None:
        """The exit barrier, "leave A synchronously": broadcast this
        attempt's DONE (kind ``DONE``, outside the Section 4.4 counts, which
        treat application traffic "independently") unless the record's
        ``done_sent`` says it went out already, then wait for the others'."""
        record = self.contexts.active
        if record is None or record.action_name != action:
            raise ProtocolViolation(
                f"{self.name} cannot leave {action}: active action is "
                f"{self.active_action}"
            )
        if self.engine.resolving_action() == action:
            raise ProtocolViolation(
                f"{self.name} cannot leave {action} during resolution"
            )
        attempt = record.attempt
        if not record.done_sent:
            record.done_sent = True
            me, definition = self.name, self.registry.get(action)
            record.others = definition.others_set(me)
            self.engine._send_many(
                me, definition.others(me), KIND_DONE, DoneMsg(action, me, epoch=attempt)
            )
        record.leaving = True
        self.trace("action.leave_requested", action=action, attempt=attempt)
        self._check_barrier(record)

    def _on_done(self, message: Message) -> None:
        """Count a DONE on its action's record, or hold it in ``pending``
        while it cannot be counted yet: its action not entered, or a faster
        peer's next attempt.  Entry and retry replay it."""
        done: DoneMsg = message.payload
        action = done.action
        stack = self.contexts._stack
        record = stack[-1] if stack else None
        if record is None or record.action_name != action:
            record = self.contexts.find(action)
        if record is None:
            # A late DONE for an action this participant has left is
            # dropped: an ABORTED action cannot be entered any more, and a
            # COMPLETED one needed this participant's own DONE, so it was
            # entered.
            status = self.action_manager.instance(action).status
            if status is ActionStatus.ABORTED or status is ActionStatus.COMPLETED:
                return
        if record is None or record.attempt != done.epoch:
            self.buffer_pending(action, message)
            return
        arrived = record.done_from
        arrived.add(done.sender)
        # Invariant: a DONE can newly open the barrier only by completing
        # the sender set of this participant's own attempt, so the test runs
        # only once the set covers the others (the superset test fails on
        # the sizes first); every other way the barrier opens goes through
        # request_leave, reached also from _finish_handler.
        if record.leaving and arrived >= record.others:
            self._check_barrier(record)

    def _check_barrier(self, record: ExceptionContext) -> None:
        """The barrier opens once every other member's DONE for this attempt
        is in and no resolution involves this participant; then the
        acceptance test commits A, retries it (the record starts its next
        attempt in place) or signals its failure."""
        # A resolution in progress holds the barrier shut: of this action
        # (the exit resumes from _finish_handler once the handler completes)
        # or of a containing one, whose abortion chain will pop this record.
        if (
            record.leaving
            and self.engine.ctx is None
            and record.done_from >= record.others
        ):
            self._complete_action(record)

    def _complete_action(self, record: ExceptionContext) -> None:
        action, attempt = record.action_name, record.attempt
        decision = self.action_manager.exit_decision(action, attempt, self.sim_now)
        if decision == self.action_manager.EXIT_RETRY:
            self._start_retry(record)
            return
        if decision == self.action_manager.EXIT_FAIL:
            from repro.exceptions.declarations import ActionFailureException

            self.trace("action.acceptance_failed", action=action, attempt=attempt)
            self._signal_failure(action, ActionFailureException)
            return
        handled = record.handled
        self._leave(action)
        self.action_manager.note_completed(action, self.sim_now, handled)
        self.trace(
            "action.exit", action=action, outcome=EXIT_COMPLETED,
            handled=handled.name() if handled else None,
        )
        self.on_action_exit(action, EXIT_COMPLETED, handled)
        # Messages deferred under WAIT_FOR_NESTED become processable once
        # the containing action is active again.
        new_active = self.active_action
        if new_active is not None:
            self._process_pending(new_active)

    def _start_retry(self, record: ExceptionContext) -> None:
        """Backward recovery: the acceptance test failed; rerun the block.

        The object remains inside the action, so its record stays and
        starts the next attempt in place; atomic-object state was already
        rolled back by the manager's implicit transaction abort.
        """
        action = record.action_name
        record.attempt = next_attempt = record.attempt + 1
        record.done_sent = record.leaving = False
        record.done_from.clear()
        record.handled = record.handler = record.committed = None
        record.raised.clear()  # a fresh attempt may raise anew
        self.engine.forget_action(action)
        # Descendant actions rerun as fresh incarnations: purge whatever
        # protocol state the failed attempt left for them (their stale
        # traffic has fully drained — see CAActionManager.exit_decision).
        for descendant in self.registry.descendants(action):
            self.engine.forget_action(descendant)
            self.pending.pop(descendant, None)
        self.trace("action.retry", action=action, attempt=next_attempt)
        self.on_action_retry(action, next_attempt)
        # A faster peer may have reached the new attempt already: its
        # Exception was buffered against our completed previous attempt
        # (the engine's ``resolved`` × Exception row), its DONE by _on_done,
        # and both are live again now.
        self._process_pending(action)

    def abort_local(self, action: str) -> None:
        """Leave ``action`` during nested-chain abortion (a participant may
        be aborted out of an action while waiting on its exit line) and
        record the abortion with the manager, which rolls back the
        action's transaction."""
        self._leave(action)
        self.action_manager.note_aborted(action, self.sim_now)

    def _leave(self, action: str) -> None:
        """``delete last element in SA_i``: the one exit of a commit, an
        abortion and a signalled failure alike pops A's record, and with it
        the attempt, the DONE sent, the barrier (A's DONEs and the wait on
        them), the verdict and the handler, so entering A again starts
        afresh."""
        self.contexts.pop(action)
        self.engine.forget_action(action)

    # -- raising -----------------------------------------------------------------

    def raise_exception(self, exception: ExceptionClass) -> None:
        """Raise ``exception`` in the active action (Section 4.2's
        "E_i is raised in O_i")."""
        active = self.contexts.active
        if active is None:
            raise ProtocolViolation(
                f"{self.name} cannot raise {exception.name()} outside any action"
            )
        if exception not in active.tree:
            raise ProtocolViolation(
                f"{exception.name()} is not declared in action "
                f"{active.action_name}"
            )
        if active.raised:
            raise ProtocolViolation(
                f"{self.name} already raised in {active.action_name}; only "
                "one exception per object per action is allowed (Section 4.1)"
            )
        active.raised.append(exception)
        self.engine.local_raise(active.action_name, exception)

    def handled_in(self, action: str) -> Optional[str]:
        """The exception whose handler this object last ran in ``action``."""
        handled = None
        for execution in self.handler_log:
            if execution.action == action:
                handled = execution.exception
        return handled

    # -- handler execution (called by the engine after Commit) ---------------------

    def start_resolved_handler(self, action: str, exception: ExceptionClass) -> None:
        """Run the handler for the resolved exception ``exception``."""
        handler = self.handler_set_for(action).lookup(exception)
        self.trace(
            "handler.start", action=action, exception=exception.name(),
            duration=handler.duration,
        )
        record = self.contexts.find(action)
        record.handler = self.runtime.sim.schedule(
            handler.duration,
            lambda: self._finish_handler(record, exception, handler),
            label=f"handler:{self.name}:{action}",
        )

    def cancel_handler(self, action: str) -> None:
        """Stop a still-running handler: an outer abortion supersedes it
        ("any activity of the nested action is stopped (including ...
        execution of any handlers)", Section 4.1)."""
        record = self.contexts.find(action)
        if record is not None and record.handler is not None:
            record.handler.cancel()
            record.handler = None
            self.trace("handler.cancelled", action=action)

    def _finish_handler(self, record: ExceptionContext, exception, handler) -> None:
        record.handler = None
        action = record.action_name
        result = handler.run(self, exception)
        stack = self.contexts._stack
        chain = stack[: stack.index(record) + 1]  # A and its ancestors
        self.handler_log.append(
            HandlerExecution(
                time=self.sim_now,
                action=action,
                exception=exception.name(),
                outcome=result.outcome.value,
                attempt=record.attempt,
                incarnation=".".join(str(level.attempt) for level in chain),
            )
        )
        self.trace(
            "handler.done", action=action, exception=exception.name(),
            outcome=result.outcome.value,
        )
        self.engine.handler_finished(record)
        if result.outcome is HandlerOutcome.COMPLETED:
            # Termination model: the handler took over and completed the
            # action; proceed to the synchronous exit (a DONE already sent
            # in this attempt is not sent again).
            record.handled = exception
            self.request_leave(action)
        else:
            self._signal_failure(action, result.signal)

    def _signal_failure(self, action: str, signal: ExceptionClass) -> None:
        """Handlers failed: signal ``signal`` to the containing action.

        "Note that an exception is raised within a CA action, but signalled
        between nested actions" (Section 3.1): each participant pops the
        failed action's context and raises the signalled exception in the
        containing action, where resolution proceeds as usual.
        """
        self._leave(action)
        self.action_manager.note_failed(action, self.sim_now, signal)
        self.trace(
            "action.exit", action=action, outcome=EXIT_FAILED,
            signal=signal.name(),
        )
        parent = self.registry.get(action).parent
        self.on_action_exit(action, EXIT_FAILED, signal)
        if parent is None:
            return
        active = self.contexts.active
        if active is not None and active.action_name == parent:
            if not active.raised:
                active.raised.append(signal)
                self.engine.local_raise(parent, signal)

    # -- protocol plumbing ---------------------------------------------------------

    def buffer_pending(self, action: str, message: Message) -> None:
        self.pending.setdefault(action, []).append(message)

    def drop_pending_nested(self, action: str) -> int:
        """Discard buffered messages of actions nested within ``action``.

        The Section 4.2 "clean up messages related to nested actions": when
        an outer resolution cancels inner actions, traffic of those inner
        actions must never be processed (e.g. the Exception O2 sent within
        A3 to the belated O3 in Example 2); held DONEs go and count too.
        """
        # Walk what is buffered (almost always nothing), not the action's
        # descendants: this runs once per HaveNested receipt.
        dropped = 0
        for name in list(self.pending):
            if self.registry.contains(action, name):
                dropped += len(self.pending.pop(name))
        if dropped:
            self.trace("pending.cleanup", action=action, dropped=dropped)
        return dropped

    def _process_pending(self, action: str) -> None:
        queued = self.pending.pop(action, None)
        if not queued:
            return
        if self.action_manager.is_cancelled(action):
            return
        handlers = self._kind_handlers
        for message in queued:
            handlers[message.kind](message)

    # -- behaviour integration -----------------------------------------------------

    def interrupt_behaviour(self) -> None:
        """Stop normal activity: resolution is taking over (termination
        model).  Idempotent."""
        self.on_interrupt()
