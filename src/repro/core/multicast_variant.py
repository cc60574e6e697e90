"""The Section 4.5 group-communication variant of the resolution algorithm.

"In order to implement the resolution algorithm and support reliable
message passing a practical way could be to use group communication and a
group membership service.  Participating objects in a CA action could be
treated as members of a closed group which multicasts service messages to
all members.  If a reliable multicast can be used, acknowledgement
messages will be no longer necessary and so communications in our
algorithm would consist of only several multicasts (Exception, Commit,
HaveNested, and NestedCompleted)."

The paper stops there, so one gap must be filled: without ACKs, a resolver
needs another way to know it has seen every concurrent raiser.  We use the
standard group-communication answer — a *flush round*: on first learning of
an exception in the action, each member multicasts exactly one status
message, either its own ``MC_EXCEPTION`` (if it raised) or an ``MC_FLUSH``
(suspended, possibly announcing a nested chain it is aborting, i.e. the
``HaveNested`` content rides on the flush).  Nested members follow up with
one ``MC_NESTED_COMPLETED``.  Once a member holds a status from every
group member and a NestedCompleted from every nested one, the raiser set
is definitive; the biggest raiser resolves and multicasts ``MC_COMMIT``.
The paper's messages are :mod:`repro.core.messages`' under ``MC_*`` kinds;
``RECEIVE`` below is the receive rule, each row a §4.2 clause or a delta.

Multicast-operation cost for N members, P raisers, Q nested::

    P + (N - P) + Q + 1  =  N + Q + 1   operations

versus the unicast algorithm's ``(N-1)(2P+3Q+1)`` messages.  Counting the
unicasts under the multicast (fan-out N-1 each) gives ``(N+Q+1)(N-1)``,
which crosses over with the base algorithm at ``2P + 2Q = N`` — both
numbers are reported by experiment E12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import CommitMsg, ExceptionMsg
from repro.core.state import PState
from repro.core.variants import Member, Setup, commit_step
from repro.exceptions.handlers import HandlerSet
from repro.exceptions.tree import ExceptionClass, ResolutionTree
from repro.net.message import Message

KIND_MC_EXCEPTION = "MC_EXCEPTION"
KIND_MC_FLUSH = "MC_FLUSH"
KIND_MC_NESTED_COMPLETED = "MC_NESTED_COMPLETED"
KIND_MC_COMMIT = "MC_COMMIT"

MC_KINDS = frozenset(
    {KIND_MC_EXCEPTION, KIND_MC_FLUSH, KIND_MC_NESTED_COMPLETED, KIND_MC_COMMIT}
)


@dataclass(frozen=True)
class McFlush:
    """A non-raiser's flush status (HaveNested rides on it): not in §4.1."""

    action: str
    sender: str
    have_nested: bool


class MulticastParticipant(Member):
    """A participant of the flat-action multicast variant; beyond ``ctx`` it
    keeps ``statuses``, the members whose status (Exception or flush) it
    holds, its own once flushed (dict keys: an item assignment costs no call)."""

    tag = "mc"
    KIND_NESTED_COMPLETED = KIND_MC_NESTED_COMPLETED

    def __init__(
        self,
        name: str,
        action: str,
        group: str,
        members: tuple[str, ...],
        tree: ResolutionTree,
        handlers: HandlerSet,
        **nesting,
    ) -> None:
        super().__init__(name, action, tree, handlers, **nesting)
        self.group = group
        self.members = frozenset(members)
        self.statuses: dict[str, None] = {}

    # -- sending ------------------------------------------------------------------

    def _mcast(self, kind: str, payload: object) -> None:
        self.runtime.multicast.multicast(self.group, self.name, kind, payload)

    _fan_out = _mcast

    def raise_exception(self, exception: ExceptionClass) -> None:
        ctx = self.ctx
        if ctx.state is not PState.NORMAL:
            return  # informed first: suspended, does not raise any more
        self.statuses[self.name] = None
        ctx.le[self.name] = exception
        self._enter(PState.EXCEPTIONAL, raised=exception)
        self._mcast(
            KIND_MC_EXCEPTION, ExceptionMsg(self.action, self.name, exception)
        )
        self.PROGRESS[ctx.state](self)

    def _flush(self) -> None:
        """The one status multicast of a non-raiser (flush round)."""
        if self.name in self.statuses:
            return
        self.statuses[self.name] = None
        self._enter(PState.SUSPENDED)
        has_nested = self.nested_depth > 0
        self._mcast(
            KIND_MC_FLUSH, McFlush(self.action, self.name, has_nested)
        )
        if has_nested:
            self._start_abort()

    # -- RECEIVE effects -------------------------------------------------------------

    def _on_exception(self, message: Message) -> None:
        """(4c) ``<A, O_j, E_j> -> LE_i`` and O_j's status, then (4b) this
        member's flush.  delta: no ``ACK => O_j`` under reliable multicast."""
        payload: ExceptionMsg = message.payload
        self.statuses[payload.sender] = None
        self.ctx.le[payload.sender] = payload.exception
        self._flush()
        self.PROGRESS[self.ctx.state](self)

    def _on_flush(self, message: Message) -> None:
        """delta: a status in place of ACKs — O_j raised nothing, and
        ``have_nested`` is its HaveNested (4c); then this member's flush."""
        payload: McFlush = message.payload
        self.statuses[payload.sender] = None
        if payload.have_nested:
            self.ctx.lo.add(payload.sender)
        self._flush()
        self.PROGRESS[self.ctx.state](self)

    RECEIVE = {
        KIND_MC_EXCEPTION: _on_exception, KIND_MC_FLUSH: _on_flush,
        KIND_MC_NESTED_COMPLETED: Member._on_nested_completed,
        KIND_MC_COMMIT: Member._on_commit,
    }

    # -- PROGRESS ------------------------------------------------------------------

    def _flush_complete(self) -> None:
        """delta: the flush-complete guard in place of (7) — a status from
        every member (this one's own too, so in N it waits) and a
        NestedCompleted from every nested one — then (8) the biggest in LE
        resolves; in S too, as a nested member's abortion signal joins LE."""
        ctx = self.ctx
        if (
            set(self.statuses) != self.members
            or not ctx.lo <= ctx.nested_completed
            or not ctx.le
        ):
            return
        if self.name == max(ctx.le):
            commit_step(
                self, ctx, self._mcast_commit, self._handle, record_raisers=False
            )

    PROGRESS = {
        PState.NORMAL: _flush_complete, PState.EXCEPTIONAL: _flush_complete,
        PState.SUSPENDED: _flush_complete, PState.READY: Member._progress_r,
    }

    def _mcast_commit(self, commit: CommitMsg) -> None:
        self._mcast(KIND_MC_COMMIT, commit)


def build(setup: Setup, abort_duration: float = 0.5) -> dict[str, MulticastParticipant]:
    """The variant's part of :func:`repro.core.variants.run_action`.

    Over a faulty channel the multicast layer detects the reliable
    substrate and skips its own per-destination retries.  The variant has
    no failure detector, so a mid-protocol crash stalls the survivors (a
    documented limitation that fault campaigns classify as an *expected*
    stall).
    """
    runtime, names = setup.runtime, setup.names
    runtime.membership.create("GA", list(names))
    participants: dict[str, MulticastParticipant] = {}
    for index, name in enumerate(names):
        nested = 1 if setup.p <= index < setup.p + setup.q else 0
        participant = MulticastParticipant(
            name, "A1", "GA", names, setup.tree, setup.handlers,
            nested_depth=nested, abort_duration=abort_duration,
        )
        runtime.register(participant)
        participants[name] = participant
    return participants
