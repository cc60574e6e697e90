"""A centralised resolution variant (paper Section 4.5).

"Such implementation would allow the dynamic change of different
resolution algorithms (e.g. centralised or decentralised), being
transparent to the application programmer."

Here is the centralised pole of that spectrum, for flat actions: a
dedicated *coordinator* object (a meta-object, typically co-located with
the action manager) collects every raised exception, decides when the
raiser set is complete, resolves through the action's tree and tells every
participant which handler to run.

Protocol (per resolution):

* a raiser sends ``CD_EXCEPTION`` to the coordinator (1 message);
* the coordinator immediately ``CD_SUSPEND``s every other participant
  (N-1 messages, once per resolution) so no one keeps computing;
* suspended participants answer ``CD_STATUS`` — raised-before-suspension
  or clean (N-1 messages) — giving the coordinator a definite raiser set;
* the coordinator resolves and broadcasts ``CD_COMMIT`` (N messages,
  including the raisers).

Total: ``3N - 2 + P`` messages for P raisers — *linear* in N versus
the decentralised algorithm's quadratic ``(N-1)(2P+1)``.  The price is
the paper's reason to prefer decentralisation anyway: every resolution
funnels through one process (a bottleneck and single point of failure:
if the coordinator's node crashes, no action can recover at all), and
every message crosses the network twice instead of once.  Experiment E18
measures both sides of the trade.

Exception and Commit are :mod:`repro.core.messages`' under ``CD_*`` kinds;
each side's ``RECEIVE`` is its receive rule, a row a §4.2 clause or a delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.messages import CommitMsg, ExceptionMsg
from repro.core.state import PState, ResolutionCtx
from repro.core.variants import VARIANTS, Member, Setup, commit_step
from repro.exceptions.handlers import HandlerSet
from repro.exceptions.tree import ExceptionClass, ResolutionTree
from repro.net.message import Message
from repro.objects.base import DistributedObject

KIND_CD_EXCEPTION = "CD_EXCEPTION"
KIND_CD_SUSPEND = "CD_SUSPEND"
KIND_CD_STATUS = "CD_STATUS"
KIND_CD_COMMIT = "CD_COMMIT"

CD_KINDS = frozenset(
    {KIND_CD_EXCEPTION, KIND_CD_SUSPEND, KIND_CD_STATUS, KIND_CD_COMMIT}
)


@dataclass(frozen=True)
class CdSuspend:
    """The coordinator stopping a participant: in §4.1 an Exception does."""

    action: str
    sender: str


@dataclass(frozen=True)
class CdStatus:
    """A suspended participant's answer: what ACKs tell a §4.2 resolver."""

    action: str
    sender: str
    exception: Optional[ExceptionClass]  # raised before suspension, or None


class ResolutionCoordinator(DistributedObject):
    """The central meta-object running one action's resolutions: its LE and
    Commit are a :class:`ResolutionCtx`'s, as a resolving member's are."""

    tag = "cd"
    #: Its commit also ends the coordinator's resolution.
    commit_category = "coordinator.commit"

    def __init__(
        self, name: str, action: str, members: tuple[str, ...], tree: ResolutionTree
    ) -> None:
        super().__init__(name)
        self.action = action
        self.members = members
        self.tree = tree
        self.ctx = ResolutionCtx(action)
        self.statuses: set[str] = set()

    def _on_exception(self, message: Message) -> None:
        """delta: (4c) at the coordinator alone, ``<A, O_j, E_j> -> LE``; the
        first one suspends every other participant."""
        payload: ExceptionMsg = message.payload
        ctx = self.ctx
        if ctx.commit is not None:
            return  # post-commit raiser: recovery already decided
        first = not ctx.le  # statuses only answer the suspension sent below
        if first and self.runtime.trace._full:
            self.runtime.trace.record(
                self.sim_now, "resolution.join", self.name,
                action=self.action, variant="cd", cause=message.msg_id,
            )
        ctx.le[payload.sender] = payload.exception
        self.statuses.add(payload.sender)
        if first:
            self.send_many(
                [m for m in self.members if m != payload.sender],
                KIND_CD_SUSPEND, CdSuspend(self.action, self.name),
            )
        self._maybe_commit()

    def _on_status(self, message: Message) -> None:
        """delta: a status in place of (6)'s ACKs; with all in, the
        coordinator resolves and commits, (8) with no raiser election."""
        payload: CdStatus = message.payload
        self.statuses.add(payload.sender)
        if payload.exception is not None:
            self.ctx.le[payload.sender] = payload.exception
        self._maybe_commit()

    RECEIVE = {KIND_CD_EXCEPTION: _on_exception, KIND_CD_STATUS: _on_status}

    def _maybe_commit(self) -> None:
        if self.ctx.commit is None and self.statuses == set(self.members):
            commit_step(self, self.ctx, self._send_commit)

    def _send_commit(self, commit: CommitMsg) -> None:
        self.send_many(self.members, KIND_CD_COMMIT, commit)


class CentralizedParticipant(Member):
    """A flat-action participant under coordinator-based resolution."""

    tag = "cd"

    UNPROGRESSED = dict.fromkeys(
        PState, "the coordinator resolves: a participant only answers its "
        "suspension and handles the Commit on arrival, both in `RECEIVE`"
    )

    def __init__(
        self,
        name: str,
        action: str,
        coordinator: str,
        tree: ResolutionTree,
        handlers: HandlerSet,
    ) -> None:
        super().__init__(name, action, tree, handlers)
        self.coordinator = coordinator
        self.suspended = False

    def raise_exception(self, exception: ExceptionClass) -> None:
        if self.ctx.state is not PState.NORMAL:
            return  # informed first: no further raising (paper assumption)
        self._enter(PState.EXCEPTIONAL, raised=exception)
        self.send(
            self.coordinator,
            KIND_CD_EXCEPTION,
            ExceptionMsg(self.action, self.name, exception),
        )

    def _on_suspend(self, message: Message) -> None:
        """delta: the coordinator's suspension, not an Exception, makes (4b)'s
        ``S(O_i) := S``; answer with one status."""
        if self.suspended:
            return
        self.suspended = True
        self._enter(PState.SUSPENDED, message.msg_id)
        # Answer the suspension.  Even if we raced it with a raise of our
        # own, the CD_EXCEPTION already carries that exception, so the
        # status is always "clean" — the coordinator dedupes by sender.
        self.send(
            self.coordinator,
            KIND_CD_STATUS,
            CdStatus(self.action, self.name, None),
        )

    RECEIVE = {KIND_CD_SUSPEND: _on_suspend, KIND_CD_COMMIT: Member._on_commit}


def build(setup: Setup) -> dict[str, CentralizedParticipant]:
    """The variant's part of :func:`repro.core.variants.run_action`.

    The coordinator lives on its own node and is crashed by name like a
    participant.  Either crash stalls the protocol — the
    single-point-of-failure and missing-status limitations the module
    docstring describes — which fault campaigns classify as an *expected*
    stall.
    """
    runtime, names = setup.runtime, setup.names
    coordinator = VARIANTS["cd"].coordinator
    runtime.register(ResolutionCoordinator(coordinator, "A1", names, setup.tree))
    participants: dict[str, CentralizedParticipant] = {}
    for name in names:
        participant = CentralizedParticipant(
            name, "A1", coordinator, setup.tree, setup.handlers
        )
        runtime.register(participant)
        participants[name] = participant
    return participants
