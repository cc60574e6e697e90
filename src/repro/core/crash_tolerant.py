"""Crash-tolerant exception resolution (future-work extension).

The base algorithm (Section 4.2) waits for an ACK from *every* participant
before any object becomes Ready — so a participant that crashes
mid-protocol stalls resolution forever.  The paper gestures at fault
tolerance only via the k-resolver extension, which redounds Commit
delivery but cannot unblock the wait.  This module supplies the missing
piece as an explicit extension:

* every member runs a heartbeat failure detector
  (:class:`repro.net.detector.Heartbeater`), wired to the group membership
  service: suspected members leave the action's group view;
* readiness is computed over the *alive* view: ACKs and NestedCompleteds
  owed by suspected members are waived;
* the resolver is the biggest **alive** raiser — if the elected resolver
  crashes before committing, its suspicion re-triggers election and the
  next-biggest raiser commits; if *every* raiser died after broadcasting,
  the biggest surviving member takes the resolution over (all survivors
  hold the same LE, so the verdict is unique) — only then: an abortion
  signal in LE names no raiser, so it alone never triggers a takeover;
* handlers still start on Commit, whose raiser list covers exceptions
  raised by members that later crashed (their recovery is the survivors'
  business — the crashed object is gone);
* a member that learns of an exception *after* committing (e.g. a late
  broadcast from a falsely suspected peer) replies with its Commit
  instead of an ACK — decisions already made are stable, and the late
  raiser adopts the verdict rather than resolving a conflicting one.

False suspicion (a healthy member declared dead by a too-eager detector)
can split the group into two live halves that each elect a resolver and
commit different verdicts.  Three rules make the group converge anyway:

* Commits are broadcast to the **whole** group, never just the
  unsuspected peers — a falsely suspected member is alive and must see
  the verdict; a genuinely dead one simply never receives it.
* Conflicting commits **merge**: resolution is a join in the exception
  tree and ``lca(lca(S1), lca(S2)) == lca(S1 ∪ S2)``, so folding the
  committed exceptions pairwise yields exactly what one resolver seeing
  both LE sets would have committed.  Since every commit reaches every
  member, all survivors fold the same set and agree
  (``ct.handle_upgrade`` trace).
* A raiser offered a commit that does **not cover its own exception**
  (the resolver decided without it) extends the commit — joins its
  exception in and re-broadcasts (``ct.commit_extend`` trace) — instead
  of silently dropping a raised exception.

Nested actions are supported one increment beyond the original
flat-action limitation: a suspended member inside a nested chain
announces it (``CT_HAVE_NESTED``), runs its abortion handlers (taking
virtual time, optionally signalling an exception into the resolution)
and broadcasts ``CT_NESTED_COMPLETED``.  The resolver waits for every
live nested member's completion — and a member that **crashes during
nested abortion** is waived on suspicion exactly like a missing ACK, so
one death mid-abortion no longer stalls the survivors.  Coordinated view
changes for *concurrent independent* nested resolutions remain future
work (documented limitation).

The §4.1 messages are :mod:`repro.core.messages`' under ``CT_*`` kinds;
``RECEIVE`` below is the receive rule, each row a §4.2 clause or a delta.

Fault-free message count for N members, P raisers, Q nested::

    P(N-1) exceptions + P(N-1) ACKs + Q(N-1) HaveNested
    + Q(N-1) NestedCompleted + (N-1) Commit  =  (N-1)(2P + 2Q + 1)

(versus the base algorithm's ``(N-1)(2P+3Q+1)``: HaveNested here is one
broadcast instead of one message per raiser).

**Crash-restart recovery.**  Crash = silence, but a node can come back: a
participant constructed over a :class:`~repro.transactions.durable.
DurableStore` checkpoints its protocol state (raised / informed / aborting
/ handled) to its write-ahead log, and :meth:`CrashTolerantParticipant.
restart` replays it after :meth:`~repro.objects.runtime.Runtime.
restart_node` brings the node back.  The restart path wipes volatile
state (a crash loses memory — only the WAL and the durable objects
survive), lets the store undo whatever transactions the crash cut short,
then runs the rejoin protocol: broadcast ``CT_REJOIN_REQ`` (carrying the
replayed own exception, if the WAL says we had raised).  A peer that
already holds a verdict replies with its Commit and the returnee
**confirms its abort** — the action resolved without it, its effects are
already undone, and decisions made over the survivor view are stable.  A
peer still resolving re-syncs the returnee instead: re-adds it to the
alive view, re-sends its own Exception / nested status, ACKs the
returnee's replayed raise — and the protocol proceeds as if the silence
had been mere slowness, so the returnee **rejoins with the agreed
handler**.  Fault-free runs exchange no rejoin messages, so the count
formula above is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.messages import AckMsg, CommitMsg, ExceptionMsg, HaveNestedMsg, NestedCompletedMsg
from repro.core.state import PState, ResolutionCtx
from repro.core.variants import Member, Setup, commit_step
from repro.exceptions.declarations import UniversalException, declare_exception
from repro.exceptions.handlers import HandlerSet
from repro.exceptions.tree import ExceptionClass, ResolutionTree
from repro.net.detector import Heartbeater
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transactions.durable import DurableStore
    from repro.transactions.manager import Transaction

KIND_CT_EXCEPTION = "CT_EXCEPTION"
KIND_CT_ACK = "CT_ACK"
KIND_CT_COMMIT = "CT_COMMIT"
KIND_CT_HAVE_NESTED = "CT_HAVE_NESTED"
KIND_CT_NESTED_COMPLETED = "CT_NESTED_COMPLETED"
KIND_CT_REJOIN_REQ = "CT_REJOIN_REQ"
KIND_CT_REJOIN_REPLY = "CT_REJOIN_REPLY"

CT_KINDS = frozenset({
    KIND_CT_EXCEPTION, KIND_CT_ACK, KIND_CT_COMMIT,
    KIND_CT_HAVE_NESTED, KIND_CT_NESTED_COMPLETED,
    KIND_CT_REJOIN_REQ, KIND_CT_REJOIN_REPLY,
})

#: Later checkpoints supersede earlier ones; equal ranks may overwrite
#: (e.g. ``informed`` then ``aborting`` on a nested member).
_CHECKPOINT_RANK = {
    "informed": 1, "raised": 2, "aborting": 2,
    "handled": 3, "confirmed-abort": 3,
}


@dataclass(frozen=True)
class CtRejoinReq:
    """A restarted member announcing itself (no §4.1 member comes back),
    with what its WAL said it had raised (``None`` if it had not raised)."""

    action: str
    sender: str
    exception: Optional[ExceptionClass]


@dataclass(frozen=True)
class CtRejoinReply:
    """A peer's answer to a rejoin: the verdict if it already holds one,
    else ``None`` ("still resolving — normal protocol messages follow")."""

    action: str
    sender: str
    commit: Optional[CommitMsg]


class CrashTolerantParticipant(Member):
    """A participant that survives peer crashes, including mid-abortion;
    beyond ``ctx`` it keeps ``raisers``, its WAL fields and ``rejoin_outcome``."""

    tag = "ct"
    KIND_NESTED_COMPLETED = KIND_CT_NESTED_COMPLETED

    def __init__(
        self,
        name: str,
        action: str,
        group: tuple[str, ...],
        tree: ResolutionTree,
        handlers: HandlerSet,
        hb_interval: float = 2.0,
        hb_timeout: float = 7.0,
        membership_group: str | None = None,
        store: "DurableStore | None" = None,
        **nesting,
    ) -> None:
        super().__init__(name, action, tree, handlers, **nesting)
        self.group = group
        #: Durable state (WAL + atomic objects); ``None`` = volatile-only.
        self.store = store
        self.restarted = False
        self._forget()
        # Every RECEIVE effect first stamps its sender's ``last_seen`` as a
        # heartbeat would: protocol traffic is a sign of life too.
        self.detector = Heartbeater(
            self, group, interval=hb_interval, timeout=hb_timeout,
            on_suspect=self._on_suspect, membership_group=membership_group,
        )

    def _unwire(self) -> None:
        """The detector's links back: its object and its suspicion hook."""
        detector = self.detector
        detector.obj = detector.on_suspect = None

    def _forget(self) -> None:
        """Set the volatile state, what a crash loses, to a fresh member's:
        ``__init__`` and :meth:`restart` both call this, so none survives."""
        #: LE holds raised exceptions and abortion signals; only this member's
        #: Exception is ever ACKed, and its one ACK payload serves every reply.
        self.ctx = ResolutionCtx(
            self.action, ack_awaited={KIND_CT_EXCEPTION: set()},
            ack_exception=AckMsg(self.action, self.name, KIND_CT_EXCEPTION),
        )
        #: Members that *broadcast* an exception — the resolver candidates
        #: (an abortion signal contributes to LE but does not make its
        #: sender eligible to resolve).
        self.raisers: set[str] = set()
        self.handled = None
        #: The action's open work transaction over the durable store —
        #: the writes a crash cuts short and the WAL must undo.
        self.work_txn: "Transaction | None" = None
        #: After a restart: ``"rejoined"`` (handler ran with the agreed
        #: verdict) or ``"confirmed-abort"`` (resolution finished without
        #: us; our effects are undone) or ``"already-handled"``.
        self.rejoin_outcome: Optional[str] = None
        self._ckpt_rank = 0

    # -- durability ------------------------------------------------------------

    def _checkpoint(self, state: str, **extra) -> None:
        """Durably record the protocol state the restart path rebuilds
        from.  Later states supersede earlier ones (never downgrade —
        e.g. a straggler Exception after abort start must not demote
        ``aborting`` back to ``informed`` as the WAL's last word)."""
        if self.store is None:
            return
        rank = _CHECKPOINT_RANK[state]
        if rank < self._ckpt_rank:
            return
        self._ckpt_rank = rank
        self.store.checkpoint_action(self.action, state, **extra)

    def begin_work(self) -> None:
        """Open the action's work transaction: one durable write whose
        undo information hits the WAL before the mutation, so a crash
        mid-action leaves exactly the state the restart path must undo."""
        if self.store is None or self.work_txn is not None or self.crashed:
            return
        obj = next(iter(self.store.objects.values()))
        txn = self.store.manager.begin()
        txn.write(obj, "progress", self.name)
        txn.prepare()  # durable point: the undo info is on disk
        self.work_txn = txn

    def _abort_work(self) -> None:
        """Backward recovery of the action's durable effects (the
        paper's implicit abort before handlers run, Figure 2(b))."""
        if self.work_txn is not None:
            self.work_txn.abort()
            self.work_txn = None

    # -- raising --------------------------------------------------------------

    def raise_exception(self, exception: ExceptionClass) -> None:
        ctx = self.ctx
        if ctx.raised_local or ctx.le or self.handled is not None:
            return  # informed or already recovered: suspended semantics
        if self.nested_depth > 0:
            raise RuntimeError(
                f"{self.name}: a nested member raises within its nested "
                "action, not the crash-tolerant top-level one"
            )
        self._adopt_raise(exception)
        self._checkpoint("raised", exception=exception.name())
        self._enter(PState.EXCEPTIONAL, raised=exception)
        ctx.state = PState.EXCEPTIONAL  # also after a restart announced S
        self.send_many(
            self.detector.peers, KIND_CT_EXCEPTION,
            ExceptionMsg(self.action, self.name, exception),
        )
        self.PROGRESS[ctx.state](self)

    def _adopt_raise(self, exception: ExceptionClass) -> None:
        """A raiser in LE, awaiting an ACK from every unsuspected peer."""
        ctx = self.ctx
        ctx.raised_local = True
        self.raisers.add(self.name)
        ctx.le[self.name] = exception
        ctx.ack_awaited[KIND_CT_EXCEPTION] = set(self.detector.alive_peers())

    # -- RECEIVE effects -------------------------------------------------------

    def _on_exception(self, message: Message) -> None:
        """(4c) ``<A, O_j, E_j> -> LE_i; ACK => O_j``, after (4a) on a nested
        member.  delta: a member holding a verdict answers with its Commit."""
        self.detector.last_seen[message.src] = message.deliver_time
        payload: ExceptionMsg = message.payload
        ctx = self.ctx
        ctx.le[payload.sender] = payload.exception
        self.raisers.add(payload.sender)
        self._checkpoint("informed")
        self._enter(PState.SUSPENDED, message.msg_id)
        if ctx.commit is not None:
            # Decision already taken (the sender is a late raiser — e.g.
            # falsely suspected and slow): reply with the verdict, not an
            # ACK, so it adopts our commit instead of resolving its own.
            self.runtime.trace.record(
                self.sim_now, "ct.late_exception", self.name,
                action=self.action, peer=payload.sender,
            )
            self.send(payload.sender, KIND_CT_COMMIT, ctx.commit)
            return
        # HaveNested must go out *before* the ACK: per-channel FIFO then
        # guarantees the resolver sees our nested announcement no later
        # than our ACK, so it can never drain its awaited ACKs and commit
        # while our abortion is still unannounced.  (Sending the ACK
        # first loses that ordering across channels: the resolver may
        # process the other members' ACKs and ours before our HaveNested
        # and commit prematurely, dropping the abortion's signal and its
        # NestedCompleted round — found by ``repro explore``, schedule
        # ``ch:3=1`` on ``paper:ct:none:n3p1q1:s0``.)  The guard is tested
        # here too so that an Exception at a flat member costs no call.
        if self.nested_depth > 0 and not ctx.sent_have_nested:
            self._maybe_start_abort()
        self.send(payload.sender, KIND_CT_ACK, ctx.ack_exception)
        self.PROGRESS[ctx.state](self)

    def _on_ack(self, message: Message) -> None:
        """(6) ``<O_j> -> LP_i``, kept as its complement ``ack_awaited``.
        delta: a suspected peer's ACK is waived (``_on_suspect``)."""
        self.detector.last_seen[message.src] = message.deliver_time
        ctx = self.ctx
        ctx.ack_awaited[KIND_CT_EXCEPTION].discard(message.src)
        self.PROGRESS[ctx.state](self)

    def _on_commit(self, message: Message) -> None:
        """(9)/(10) start the handler for E at once.  delta: a raiser E does
        not cover extends and re-broadcasts the Commit; a second one merges."""
        self.detector.last_seen[message.src] = message.deliver_time
        payload: CommitMsg = message.payload
        if self.rejoin_outcome == "confirmed-abort":
            # We restarted after the action resolved and confirmed our
            # abort: the verdict is acknowledged, but we are out of the
            # action — a straggler or merged Commit must not pull us back
            # into running a handler the survivor view excluded us from.
            return
        ctx = self.ctx
        if ctx.commit is None:
            own = ctx.le.get(self.name) if ctx.raised_local else None
            if own is not None and not self.tree.covers(payload.exception, own):
                # The resolver decided without our raise — it falsely
                # suspected us, or committed before our Exception landed.
                # Adopting its verdict would drop a raised exception, so
                # extend the commit with our own and re-broadcast; joins
                # commute, so the group still converges on one verdict.
                merged = self.tree.resolve((payload.exception, own))
                commit = CommitMsg(
                    self.action, self.name, merged,
                    raisers=tuple(sorted({*payload.raisers, self.name})),
                )
                ctx.commit = commit
                self.runtime.trace.record(
                    self.sim_now, "ct.commit_extend", self.name,
                    action=self.action, exception=merged.name(),
                )
                self.send_many(self.detector.peers, KIND_CT_COMMIT, commit)
                self._start_handler(merged, message.msg_id)
                return
            ctx.commit = payload
            self._start_handler(payload.exception, message.msg_id)
            return
        if ctx.commit.exception is payload.exception:
            return
        # Two resolvers committed different verdicts: a falsely suspected
        # partition elected its own resolver over a subset of the raised
        # exceptions.  Resolution is a join in the exception tree, and
        # lca(lca(S1), lca(S2)) == lca(S1 ∪ S2) — so merging the two
        # committed exceptions gives exactly what a single resolver that
        # had seen both LE sets would have committed.  Every commit is
        # broadcast to the whole group, so all survivors fold the same
        # set of verdicts and converge on the same join.
        merged = self.tree.resolve((ctx.commit.exception, payload.exception))
        if merged is ctx.commit.exception:
            return
        ctx.commit = CommitMsg(
            self.action, payload.sender, merged,
            raisers=tuple(sorted({*ctx.commit.raisers, *payload.raisers})),
        )
        previous = self.handled
        self.handled = merged
        self.runtime.trace.record(
            self.sim_now, "ct.handle_upgrade", self.name,
            action=self.action,
            exception=merged.name(),
            superseded=previous.name() if previous else None,
        )

    def _on_have_nested(self, message: Message) -> None:
        """(4c) ``<O_j, A> -> LO_i``.  delta: no (4a) or (4b) here: the
        raiser's Exception, sent to every member, does both."""
        self.detector.last_seen[message.src] = message.deliver_time
        payload: HaveNestedMsg = message.payload
        ctx = self.ctx
        ctx.lo.add(payload.sender)
        self.PROGRESS[ctx.state](self)

    def _on_nested_completed(self, message: Message) -> None:
        """delta: (5) without ``ACK => O_j``, O_j in LO; a signal ``E_j``
        joins LE but makes O_j no raiser, and a suspected nested member is
        not awaited."""
        self.detector.last_seen[message.src] = message.deliver_time
        self.ctx.lo.add(message.payload.sender)
        Member._on_nested_completed(self, message)

    def _on_rejoin_req(self, message: Message) -> None:
        """delta: a restarted member asks back in: reply with the verdict, or
        re-admit it and re-send what its lost memory held."""
        self.detector.last_seen[message.src] = message.deliver_time
        payload: CtRejoinReq = message.payload
        self.runtime.trace.record(
            self.sim_now, "ct.rejoin_req", self.name,
            action=self.action, peer=payload.sender,
        )
        ctx = self.ctx
        if ctx.commit is not None:
            # The action resolved while the sender was down.  Decisions
            # made over the survivor view are stable: hand it the verdict
            # (it will confirm its abort) and leave the suspicion alone.
            self.send(
                payload.sender, KIND_CT_REJOIN_REPLY,
                CtRejoinReply(self.action, self.name, ctx.commit),
            )
            return
        # Still resolving: the returnee's silence was no worse than
        # slowness.  Welcome it back and re-send everything its pre-crash
        # self may have lost with its memory — our exception, our nested
        # status — in the same per-channel FIFO order the live protocol
        # guarantees (HaveNested before the ACK, see ``_on_exception``).
        self.detector.rejoin(payload.sender)
        if payload.exception is not None:
            ctx.le[payload.sender] = payload.exception
            self.raisers.add(payload.sender)
            self._maybe_start_abort()
        if ctx.sent_have_nested:
            self.send(
                payload.sender, KIND_CT_HAVE_NESTED,
                HaveNestedMsg(self.action, self.name),
            )
            if self.name in ctx.nested_completed:
                self.send(
                    payload.sender, KIND_CT_NESTED_COMPLETED,
                    NestedCompletedMsg(self.action, self.name, self.abort_signal),
                )
        if payload.exception is not None:
            self.send(payload.sender, KIND_CT_ACK, ctx.ack_exception)
        if ctx.raised_local:
            self.send(
                payload.sender, KIND_CT_EXCEPTION,
                ExceptionMsg(self.action, self.name, ctx.le[self.name]),
            )
        self.send(
            payload.sender, KIND_CT_REJOIN_REPLY,
            CtRejoinReply(self.action, self.name, None),
        )
        self.PROGRESS[ctx.state](self)

    def _on_rejoin_reply(self, message: Message) -> None:
        """delta: a verdict in the reply: it resolved without us, confirm abort."""
        self.detector.last_seen[message.src] = message.deliver_time
        payload: CtRejoinReply = message.payload
        if payload.commit is None:
            return  # peer is still resolving; its protocol messages follow
        if self.rejoin_outcome is not None or self.handled is not None:
            return
        # The action already resolved without us: our WAL replay undid our
        # effects, the survivor view excluded us — confirm the abort
        # instead of running a handler we were never committed into.
        if self.ctx.commit is None:
            self.ctx.commit = payload.commit
        self.rejoin_outcome = "confirmed-abort"
        self._checkpoint(
            "confirmed-abort", exception=payload.commit.exception.name()
        )
        self.detector.stop()
        self.runtime.trace.record(
            self.sim_now, "ct.rejoin_abort", self.name,
            action=self.action, exception=payload.commit.exception.name(),
        )

    RECEIVE = {
        KIND_CT_EXCEPTION: _on_exception, KIND_CT_HAVE_NESTED: _on_have_nested,
        KIND_CT_NESTED_COMPLETED: _on_nested_completed, KIND_CT_ACK: _on_ack,
        KIND_CT_COMMIT: _on_commit, KIND_CT_REJOIN_REQ: _on_rejoin_req,
        KIND_CT_REJOIN_REPLY: _on_rejoin_reply,
    }

    def _on_suspect(self, peer: str) -> None:
        # Waive the ACK the dead peer owed us (a NestedCompleted it owes is
        # waived by the rows), then re-evaluate: this is the liveness fix
        # and the resolver re-election trigger in one.
        ctx = self.ctx
        ctx.ack_awaited[KIND_CT_EXCEPTION].discard(peer)
        self.PROGRESS[ctx.state](self)

    # -- nested abortion ---------------------------------------------------------

    def _maybe_start_abort(self) -> None:
        """On first being informed, a nested member announces its chain to
        the alive peers and aborts it."""
        ctx = self.ctx
        if self.nested_depth <= 0 or ctx.sent_have_nested:
            return
        ctx.sent_have_nested = True
        self._checkpoint("aborting")
        self.send_many(
            self.detector.alive_peers(), KIND_CT_HAVE_NESTED,
            HaveNestedMsg(self.action, self.name),
        )
        self._start_abort()

    def _fan_out(self, kind: str, payload: object) -> None:
        self.send_many(self.detector.alive_peers(), kind, payload)

    # -- PROGRESS rows: run after every event that may advance this member --

    def _take_over(self) -> None:
        """delta: decision 9 — a member that did not raise waits for the
        Commit, unless some raiser is known and every known raiser is
        suspected: then the biggest unsuspected member resolves in their
        place (every survivor holds the same LE, so the same verdict).  An
        abortion signal in LE names no raiser, so it alone never does."""
        ctx = self.ctx
        if (  # ``handled`` in N: a restart replayed a finished handler
            ctx.commit is not None or self.handled is not None
            or not self.raisers or self.crashed
        ):
            return
        suspected = self.detector.suspected
        if self.raisers - suspected or ctx.lo - ctx.nested_completed - suspected:
            return  # a raiser lives, or a live nested member is still aborting
        if self.name != max(set(self.group) - suspected):
            return
        self.runtime.trace.record(
            self.sim_now, "ct.takeover", self.name, action=self.action
        )
        self._enter(PState.EXCEPTIONAL)  # the takeover joins only now
        commit_step(self, ctx, self._send_commit, self._start_handler)

    def _ready(self) -> None:
        """delta: (7) and (8) over the alive view — once every ACK and
        NestedCompleted owed by an unsuspected member is in, the biggest
        unsuspected raiser resolves.  ``detector.suspected`` is read here,
        not baked into LO, because ``Heartbeater.rejoin`` clears a suspicion."""
        ctx = self.ctx
        if ctx.commit is not None or self.crashed:
            return  # halt semantics: a dead object takes no decisions
        suspected = self.detector.suspected
        if (
            ctx.ack_awaited[KIND_CT_EXCEPTION] - suspected
            or ctx.lo - ctx.nested_completed - suspected
        ):
            return  # still waiting on live peers
        if self.name == max(self.raisers - suspected):
            commit_step(self, ctx, self._send_commit, self._start_handler)

    PROGRESS = {
        PState.NORMAL: _take_over, PState.EXCEPTIONAL: _ready,
        PState.SUSPENDED: _take_over, PState.READY: Member._progress_r,
    }

    def _send_commit(self, commit: CommitMsg) -> None:
        # Commit goes to the *whole* group, not just unsuspected peers: a
        # falsely suspected member is alive and must still converge, and a
        # genuinely dead one simply never receives it (crash = silence).
        self.send_many(self.detector.peers, KIND_CT_COMMIT, commit)

    def _start_handler(
        self, exception: ExceptionClass, cause: Optional[int] = None
    ) -> None:
        if self.handled is not None:
            return
        self.detector.stop()
        # Backward recovery precedes the handler: the action's durable
        # effects roll back (undo records -> WAL abort record) so the
        # handler starts from a transaction-consistent state.
        self._abort_work()
        self._checkpoint("handled", exception=exception.name())
        if self.restarted and self.rejoin_outcome is None:
            self.rejoin_outcome = "rejoined"
            self.runtime.trace.record(
                self.sim_now, "ct.rejoin", self.name,
                action=self.action, exception=exception.name(),
            )
        self._handle(exception, cause)

    # -- crash-restart recovery ---------------------------------------------------

    def _exception_named(self, name: Optional[str]) -> Optional[ExceptionClass]:
        if name is None:
            return None
        for member in self.tree.members:
            if member.name() == name:
                return member
        return None

    def restart(self, store: "DurableStore | None" = None) -> None:
        """Come back from a crash (after ``runtime.restart_node``).

        A crash loses memory: every field the live protocol maintained is
        wiped and rebuilt from the two things that survive — the WAL
        (``store.recovery``, which already undid the transactions the
        crash cut short) and the durable objects.  Then the rejoin
        protocol runs: broadcast ``CT_REJOIN_REQ`` and let the peers'
        replies decide between full re-participation and confirmed abort.
        """
        if store is not None:
            self.store = store
        # -- volatile state dies with the node -------------------------------
        self._forget()
        self.restarted = True
        self.detector.restart()
        # -- durable state replays -------------------------------------------
        state = (
            self.store.last_action_state(self.action)
            if self.store is not None else None
        )
        last = state["state"] if state else None
        recovered = (
            len(self.store.recovered_incomplete) if self.store is not None else 0
        )
        self.runtime.trace.record(
            self.sim_now, "ct.restart", self.name,
            action=self.action, replayed=last, undone=recovered,
        )
        if last in ("handled", "confirmed-abort"):
            # We crashed *after* the action finished with us: nothing to
            # rejoin, and the WAL already holds the final word.
            self.rejoin_outcome = "already-handled"
            self.handled = self._exception_named(state.get("exception"))
            self._ckpt_rank = _CHECKPOINT_RANK[last]
            self.detector.stop()
            return
        exception = None
        if last == "raised":
            exception = self._exception_named(state.get("exception"))
        if exception is not None:
            # Re-adopt our own raise; ACKs must be re-collected because
            # the pre-crash ones died with our memory.
            self._adopt_raise(exception)
            self._ckpt_rank = _CHECKPOINT_RANK["raised"]
        elif last is not None:
            self._ckpt_rank = _CHECKPOINT_RANK[last]
        self._enter(PState.EXCEPTIONAL if exception is not None else PState.SUSPENDED)
        self.send_many(
            self.detector.peers, KIND_CT_REJOIN_REQ,
            CtRejoinReq(self.action, self.name, exception),
        )


def build(
    setup: Setup,
    hb_interval: float = 2.0,
    hb_timeout: float = 7.0,
    abort_duration: float = 1.0,
    nested_signal: bool = False,
    restart_at: float | None = None,
    durable_dir: "str | None" = None,
    wal_fsync: bool = False,
    work_at: float | None = None,
) -> dict[str, CrashTolerantParticipant]:
    """The variant's part of :func:`repro.core.variants.run_action`.

    Crash victims typically die *after* raising, the case that deadlocks
    the base algorithm.  The nested members sit inside one-level nested
    actions and abort them (taking ``abort_duration`` each, signalling an
    exception when ``nested_signal``).

    ``restart_at`` restarts every crash victim at that (virtual) time:
    the node comes back, and the participant replays its WAL and runs the
    rejoin protocol.  ``durable_dir`` gives every participant a durable
    store (an atomic object plus a per-node WAL file under that
    directory); each opens a work transaction at ``work_at`` (default:
    the raise instant) whose writes a crash cuts short — exactly the state
    the restart path must undo.  ``wal_fsync=False`` (the default) keeps
    simulated-time runs off the disk-latency path; the recovery benchmark
    and CI smoke turn it on.
    """
    runtime, names, tree, handlers = (
        setup.runtime, setup.names, setup.tree, setup.handlers
    )
    signal_exc = None
    if nested_signal:
        # The abortion signal is one more leaf of the action's tree.
        signal_exc = declare_exception("CT_ABORT_SIG")
        tree = ResolutionTree(
            UniversalException,
            {leaf: UniversalException for leaf in [*setup.leaves, signal_exc]},
        )
        handlers = HandlerSet.completing_all(tree)
    group_name = "ct:A1"
    runtime.membership.create(group_name, list(names))
    if durable_dir is not None:
        from pathlib import Path

        from repro.transactions.atomic_object import AtomicObject
        from repro.transactions.durable import DurableStore
    participants: dict[str, CrashTolerantParticipant] = {}
    for index, name in enumerate(names):
        store = None
        if durable_dir is not None:
            obj = AtomicObject(f"st:{name}", {"progress": None})
            store = DurableStore(
                Path(durable_dir) / f"{name}.wal", [obj], fsync=wal_fsync
            )
        depth = 1 if setup.p <= index < setup.p + setup.q else 0
        participant = CrashTolerantParticipant(
            name, "A1", names, tree, handlers,
            hb_interval=hb_interval, hb_timeout=hb_timeout,
            nested_depth=depth, abort_duration=abort_duration,
            abort_signal=signal_exc if depth else None,
            membership_group=group_name, store=store,
        )
        runtime.register(participant)
        participants[name] = participant
        runtime.sim.schedule(0.0, participant.detector.start, label=f"start:{name}")
    if durable_dir is not None:
        for name in names:
            runtime.sim.schedule(
                setup.raise_at if work_at is None else work_at,
                participants[name].begin_work,
                label=f"ct-work:{name}",
            )

        def close_stores() -> None:
            for participant in participants.values():
                participant.store.close()

        setup.after_run.append(close_stores)
    if restart_at is not None:
        for _, crash_at in setup.crashes:
            if restart_at <= crash_at:
                raise ValueError(
                    f"restart_at ({restart_at}) must follow crash_at ({crash_at})"
                )

        def restart(victim: str) -> None:
            runtime.restart_node(f"node:{victim}")
            store = participants[victim].store
            if store is not None:  # durable_dir was given: see the imports above
                store.close()
                # Reopen over the same WAL file and the same (durable)
                # objects: this runs the real recover() path — torn-tail
                # truncation, replay, undo, recovered-abort markers.
                store = DurableStore(
                    store.path, store.objects.values(), fsync=wal_fsync
                )
            participants[victim].restart(store)

        for victim, _ in setup.crashes:
            runtime.sim.schedule(
                restart_at, lambda v=victim: restart(v), label=f"restart:{victim}"
            )
    return participants
