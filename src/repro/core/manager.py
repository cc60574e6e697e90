"""The CA action manager.

The paper allows "a (centralized or decentralized) manager of CA actions"
(Section 4) whose job is bookkeeping: who has entered which action, the
transaction associated with each action attempt, and each action's final
outcome.  We implement the centralized flavour.  Note what the manager is
*not*: it takes no part in exception resolution, which runs purely by
message passing between participants (Section 4.2) — keeping the measured
message counts faithful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.action import ActionRegistry, CAActionDef
from repro.exceptions.tree import ExceptionClass
from repro.transactions.manager import Transaction, TransactionManager, TxnState


class ActionStatus(enum.Enum):
    PENDING = "pending"       # declared, nobody entered yet
    RUNNING = "running"       # at least one participant inside
    COMPLETED = "completed"   # exited normally (possibly via handlers)
    ABORTED = "aborted"       # abortion handlers ran (nested abort)
    FAILED = "failed"         # handlers signalled failure to the container


@dataclass
class ActionInstance:
    """Runtime state of one attempt of an action."""

    definition: CAActionDef
    status: ActionStatus = ActionStatus.PENDING
    entered: set[str] = field(default_factory=set)
    txn: Optional[Transaction] = None
    #: Attempt number (1 = primary); bumped by backward-recovery retries.
    attempt: int = 1
    #: Exit verdict per attempt, computed once (all participants reach the
    #: same synchronized exit line and must read one consistent decision).
    _exit_verdicts: dict[int, str] = field(default_factory=dict)
    #: exception the handlers recovered from (None for clean completion)
    handled_exception: Optional[ExceptionClass] = None
    #: exception signalled to the containing action on failure
    signalled: Optional[ExceptionClass] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def name(self) -> str:
        return self.definition.name

    def belated(self) -> set[str]:
        """Declared participants that have not entered yet."""
        return set(self.definition.participants) - self.entered


class CAActionManager:
    """Centralized bookkeeping for CA action instances."""

    def __init__(
        self,
        registry: ActionRegistry,
        txn_manager: TransactionManager | None = None,
    ) -> None:
        self.registry = registry
        self.txn_manager = txn_manager if txn_manager is not None else TransactionManager()
        self._instances: dict[str, ActionInstance] = {}

    # -- lookup ------------------------------------------------------------------

    def instance(self, action: str) -> ActionInstance:
        inst = self._instances.get(action)
        if inst is None:
            inst = ActionInstance(self.registry.get(action))
            self._instances[action] = inst
        return inst

    def txn_for(self, action: str) -> Optional[Transaction]:
        return self.instance(action).txn

    def instances(self) -> dict[str, ActionInstance]:
        return dict(self._instances)

    # -- lifecycle notifications (called by participants) -------------------------

    def note_entered(self, action: str, participant: str, now: float) -> ActionInstance:
        inst = self.instance(action)
        if inst.status in (ActionStatus.ABORTED, ActionStatus.FAILED):
            raise RuntimeError(
                f"{participant} cannot enter {action}: already {inst.status.value}"
            )
        if participant not in inst.definition.participants:
            raise ValueError(f"{participant} is not declared in action {action}")
        if inst.status is ActionStatus.PENDING:
            inst.status = ActionStatus.RUNNING
            inst.started_at = now
            if inst.definition.transactional:
                parent_txn = (
                    self.txn_for(inst.definition.parent)
                    if inst.definition.parent is not None
                    else None
                )
                inst.txn = self.txn_manager.begin(parent=parent_txn)
        inst.entered.add(participant)
        return inst

    _TERMINAL = (ActionStatus.COMPLETED, ActionStatus.ABORTED, ActionStatus.FAILED)

    def note_completed(
        self, action: str, now: float, handled: Optional[ExceptionClass] = None
    ) -> None:
        """Record normal completion (idempotent; first caller commits)."""
        inst = self.instance(action)
        if inst.status in self._TERMINAL:
            return
        inst.status = ActionStatus.COMPLETED
        inst.handled_exception = handled
        inst.finished_at = now
        if inst.txn is not None and inst.txn.state is TxnState.ACTIVE:
            inst.txn.commit()

    def note_aborted(self, action: str, now: float) -> None:
        """Record nested-action abortion (idempotent; first caller rolls
        back the associated transaction — "the associated transaction
        supporting system should abort the corresponding operations on
        external atomic objects", Section 4.4)."""
        inst = self.instance(action)
        if inst.status in self._TERMINAL:
            return
        inst.status = ActionStatus.ABORTED
        inst.finished_at = now
        if inst.txn is not None and inst.txn.state is TxnState.ACTIVE:
            inst.txn.abort()

    def note_failed(self, action: str, now: float, signal: ExceptionClass) -> None:
        """Record failure: handlers signalled ``signal`` to the container."""
        inst = self.instance(action)
        if inst.status in self._TERMINAL:
            return
        inst.status = ActionStatus.FAILED
        inst.signalled = signal
        inst.finished_at = now
        if inst.txn is not None and inst.txn.state is TxnState.ACTIVE:
            inst.txn.abort()

    # -- backward recovery (Figure 2(b)) -----------------------------------------

    EXIT_COMMIT = "commit"
    EXIT_RETRY = "retry"
    EXIT_FAIL = "fail"

    def exit_decision(self, action: str, attempt: int, now: float) -> str:
        """Evaluate the acceptance test at the synchronized exit line.

        Returns one of ``EXIT_COMMIT`` (test passed or absent),
        ``EXIT_RETRY`` (failed, attempts remain — the transaction has been
        aborted and a fresh one started), or ``EXIT_FAIL`` (failed, out of
        attempts).  The verdict is computed once per attempt; every
        participant that completes attempt ``attempt``'s barrier reads the
        same answer, however late it gets there.
        """
        inst = self.instance(action)
        verdict = inst._exit_verdicts.get(attempt)
        if verdict is not None:
            return verdict
        definition = inst.definition
        if definition.acceptance is None:
            passed = True
        else:
            # A predicate that raises fails the test: an error inside the
            # check is itself an error.
            try:
                passed = bool(definition.acceptance())
            except Exception:
                passed = False
        if passed:
            verdict = self.EXIT_COMMIT
        elif attempt < definition.max_attempts:
            verdict = self.EXIT_RETRY
        else:
            verdict = self.EXIT_FAIL
        inst._exit_verdicts[attempt] = verdict
        if verdict == self.EXIT_RETRY:
            # Implicit abort + start of the next attempt's transaction
            # (Figure 2(b)'s implicit start/abort calls).
            if inst.txn is not None and inst.txn.state is TxnState.ACTIVE:
                inst.txn.abort()
            inst.attempt = attempt + 1
            if definition.transactional:
                parent_txn = (
                    self.txn_for(definition.parent)
                    if definition.parent is not None
                    else None
                )
                inst.txn = self.txn_manager.begin(parent=parent_txn)
            # The new attempt may re-run nested actions: those need fresh
            # instances (their previous incarnations completed or aborted
            # with the failed attempt).  Safe at this point: every
            # participant has drained all of the old attempt's traffic
            # before its own barrier completed (per-pair FIFO puts each
            # peer's protocol messages before that peer's DONE).
            for descendant in self.registry.descendants(action):
                self._instances.pop(descendant, None)
        return verdict

    def attempt_of(self, action: str) -> int:
        return self.instance(action).attempt

    def is_cancelled(self, action: str) -> bool:
        """True once ``action`` was aborted — stale protocol traffic
        addressed to it should be discarded rather than buffered.

        Deliberately *not* true for FAILED: failure is established by each
        participant's own handler signalling, and peers may still be
        waiting for the Commit that leads them there; suppressing delivery
        on the strength of the centralized record would leak centralized
        knowledge into the distributed protocol.
        """
        return self.instance(action).status is ActionStatus.ABORTED
