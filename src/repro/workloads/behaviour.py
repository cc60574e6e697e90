"""Behaviour scripts for participating objects.

A behaviour is a list of steps; :class:`ActionBlock` nests steps inside a
CA action, mirroring the static nesting of actions.  The
:class:`BehaviourRunner` walks the script in virtual time and integrates
with the termination model: when a resolution starts, the runner is
interrupted; when a handler completes an action, the runner resumes *after
that action's block* — the handler "takes over the duties of participating
objects in a CA action and completes the action" (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence, Union

from repro.core.participant import (
    EXIT_COMPLETED,
    ActionUnavailableError,
    CAParticipant,
)
from repro.exceptions.tree import ExceptionClass
from repro.simkernel.kernel import KernelHandle
from repro.transactions.atomic_object import AtomicObject
from repro.transactions.locks import LockMode


@dataclass(frozen=True)
class Compute:
    """Local computation for ``duration`` virtual time units."""

    duration: float


@dataclass(frozen=True)
class Raise:
    """Raise ``exception`` in the currently active action."""

    exception: ExceptionClass


@dataclass(frozen=True)
class AtomicWrite:
    """Write to an external atomic object under the action's transaction.

    With ``wait=True`` the step blocks (suspending the behaviour) until a
    competing action releases the lock — the paper's *competitive*
    concurrency.  If waiting would deadlock, ``on_deadlock`` (an exception
    declared in the action's tree) is raised within the action, turning a
    resource deadlock into coordinated exception resolution; with no
    ``on_deadlock`` the DeadlockError propagates as a hard error.
    """

    obj: AtomicObject
    key: Hashable
    value: Any
    wait: bool = False
    on_deadlock: Any = None


@dataclass(frozen=True)
class AtomicRead:
    """Read an external atomic object under the action's transaction.

    ``wait``/``on_deadlock`` as for :class:`AtomicWrite`.
    """

    obj: AtomicObject
    key: Hashable
    wait: bool = False
    on_deadlock: Any = None


@dataclass(frozen=True)
class ActionBlock:
    """Enter an action, run ``steps``, then leave synchronously.

    ``alternates`` are the recovery-block-style retry bodies for backward
    recovery (Figure 2(b)): when the action's acceptance test fails at the
    exit line, attempt k+1 runs ``alternates[k-1]`` (the last alternate
    repeats if attempts outnumber the alternates).
    """

    action: str
    steps: tuple["Step", ...]
    alternates: tuple[tuple["Step", ...], ...]

    def __init__(
        self,
        action: str,
        steps: Sequence["Step"] = (),
        alternates: Sequence[Sequence["Step"]] = (),
    ):
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(
            self, "alternates", tuple(tuple(alt) for alt in alternates)
        )

    def steps_for_attempt(self, attempt: int) -> tuple["Step", ...]:
        """Primary steps for attempt 1, alternates after."""
        if attempt <= 1 or not self.alternates:
            return self.steps
        index = min(attempt - 2, len(self.alternates) - 1)
        return self.alternates[index]


Step = Union[Compute, Raise, AtomicWrite, AtomicRead, ActionBlock]


@dataclass
class _Frame:
    steps: tuple[Step, ...]
    index: int = 0
    action: Optional[str] = None
    block: Optional[ActionBlock] = None


class BehaviourError(RuntimeError):
    """The behaviour script is malformed for its participant."""


class BehaviourRunner:
    """Drives a participant through its behaviour script."""

    def __init__(self, participant: CAParticipant, steps: Sequence[Step]) -> None:
        self.participant = participant
        self._frames: list[_Frame] = [_Frame(tuple(steps))]
        self._pending: Optional[KernelHandle] = None
        self._lock_generation = 0
        self.finished = False
        #: Result of the outermost action if it failed: the signalled
        #: exception delivered to the environment.
        self.failure: Optional[ExceptionClass] = None
        #: Values observed by AtomicRead steps, in order.
        self.reads: list[Any] = []
        participant.on_interrupt = self._interrupt
        participant.on_action_exit = self._on_action_exit
        participant.on_action_retry = self._on_action_retry

    def start(self, delay: float = 0.0) -> None:
        self._schedule(delay)

    # -- plumbing ------------------------------------------------------------

    def _schedule(self, delay: float) -> None:
        self._pending = self.participant.runtime.sim.schedule(
            delay, self._step, label=f"behaviour:{self.participant.name}"
        )

    def _interrupt(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        # Invalidate any outstanding lock-grant callback: the resolution
        # taking over supersedes whatever the normal code was waiting for.
        self._lock_generation += 1

    def _step(self) -> None:
        self._pending = None
        if self.finished:
            return
        frame = self._frames[-1]
        if frame.index >= len(frame.steps):
            if frame.action is None:
                self.finished = True
                return
            # End of an action block: synchronous exit.  Continuation
            # happens in _on_action_exit once the barrier completes.
            self.participant.request_leave(frame.action)
            return
        step = frame.steps[frame.index]
        frame.index += 1
        self._run_step(step)

    def _run_step(self, step: Step) -> None:
        participant = self.participant
        if isinstance(step, Compute):
            self._schedule(step.duration)
        elif isinstance(step, ActionBlock):
            try:
                participant.enter_action(step.action)
            except ActionUnavailableError:
                # The nested action was aborted before this belated
                # participant arrived; skip its block — the outer
                # resolution will interrupt us momentarily.
                self._schedule(0.0)
                return
            self._frames.append(
                _Frame(step.steps, action=step.action, block=step)
            )
            # Entering may have kicked off a pending resolution which
            # interrupts us; only continue if still uninterrupted.
            if participant.engine.resolving_action() is None:
                self._schedule(0.0)
        elif isinstance(step, Raise):
            participant.raise_exception(step.exception)
            # The raise interrupts normal activity (termination model);
            # no further step is scheduled here.
        elif isinstance(step, AtomicWrite):
            txn = self._require_txn()
            if step.wait:
                self._acquire_then(
                    txn, step, LockMode.EXCLUSIVE,
                    lambda: txn.write_locked(step.obj, step.key, step.value),
                )
            else:
                txn.write(step.obj, step.key, step.value)
                self._schedule(0.0)
        elif isinstance(step, AtomicRead):
            txn = self._require_txn()
            if step.wait:
                self._acquire_then(
                    txn, step, LockMode.SHARED,
                    lambda: self.reads.append(
                        txn.read_locked(step.obj, step.key)
                    ),
                )
            else:
                self.reads.append(txn.read(step.obj, step.key))
                self._schedule(0.0)
        else:  # pragma: no cover - Step union is closed
            raise BehaviourError(f"unknown step {step!r}")

    def _acquire_then(self, txn, step, mode, operation) -> None:
        """Blocking lock acquisition for competitive concurrency.

        The behaviour suspends until the lock is granted; a would-be
        deadlock becomes an exception raised within the CA action (if the
        step names one), so competing actions recover through coordinated
        resolution instead of crashing.
        """
        from repro.transactions import DeadlockError, TxnState

        generation = self._lock_generation

        def on_granted() -> None:
            if (
                generation != self._lock_generation
                or self.finished
                or txn.state is not TxnState.ACTIVE
            ):
                return  # superseded by a resolution/abort while waiting
            operation()
            self._schedule(0.0)

        try:
            if txn.acquire_async(step.obj, mode, on_granted):
                on_granted()
        except DeadlockError:
            if step.on_deadlock is None:
                raise
            self.participant.runtime.trace.record(
                self.participant.sim_now, "lock.deadlock",
                self.participant.name, obj=step.obj.name,
                raising=step.on_deadlock.name(),
            )
            self.participant.raise_exception(step.on_deadlock)

    def _require_txn(self):
        participant = self.participant
        action = participant.active_action
        if action is None:
            raise BehaviourError(
                f"{participant.name}: atomic access outside any action"
            )
        txn = participant.action_manager.txn_for(action)
        if txn is None:
            raise BehaviourError(
                f"action {action} is not transactional; declare it with "
                "transactional=True to use atomic objects"
            )
        return txn

    def _on_action_retry(self, action: str, attempt: int) -> None:
        """Backward recovery: rerun the action block with the alternate
        body for this attempt (recovery-block semantics over CA actions).

        Frames of nested actions aborted during the failed attempt may
        still sit above the retried action's frame — unwind them first
        (their actions are gone; the new attempt starts from the retried
        block's top).
        """
        while self._frames and self._frames[-1].action != action:
            if self._frames[-1].action is None:
                raise BehaviourError(
                    f"{self.participant.name}: retry of {action} does not "
                    "match the behaviour stack"
                )
            self._frames.pop()
        if not self._frames:
            raise BehaviourError(
                f"{self.participant.name}: retry of unknown action {action}"
            )
        frame = self._frames[-1]
        if frame.block is not None:
            frame.steps = frame.block.steps_for_attempt(attempt)
        frame.index = 0
        self._schedule(0.0)

    def _on_action_exit(
        self, action: str, outcome: str, exc: Optional[ExceptionClass]
    ) -> None:
        # Unwind frames down to and including the exited action's frame.
        # Inner frames may still be present when the exit came from a
        # handler after nested-chain abortion.
        while self._frames and self._frames[-1].action != action:
            if self._frames[-1].action is None:
                # The exited action's block was never on our stack (e.g.
                # exit of an action we only entered — impossible by
                # construction, so this is a script bug).
                raise BehaviourError(
                    f"{self.participant.name}: exit of {action} does not "
                    "match the behaviour stack"
                )
            self._frames.pop()
        if self._frames:
            self._frames.pop()
        if outcome == EXIT_COMPLETED:
            if not self._frames:
                self.finished = True
                return
            self._schedule(0.0)
            return
        # Failure: if the action had a parent, the participant has raised
        # the signalled exception there and resolution is in progress — we
        # stay interrupted.  A failed outermost action finishes the run.
        if self.participant.registry.get(action).parent is None:
            self.failure = exc
            self.finished = True
