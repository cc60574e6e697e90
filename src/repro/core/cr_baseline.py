"""The Campbell–Randell (1986) resolution baseline — the paper's comparator.

Section 3.3 characterises the CR mechanism:

* each participant holds only a *reduced* tree of exceptions with local
  handlers, and "has to look through it after raising each exception and
  after each resolution";
* there is a third source of exceptions: a participant informed of an
  exception it has no handler for "examine[s] the exception tree, find[s]
  and raise[s] an appropriate exception (for which there is a handler)" —
  producing the domino chains of Section 3.3;
* *every* participant performs resolution (not a single elected object),
  which is "one of the reasons why their algorithm is complex and
  expensive"; the paper puts it at O(N^3) messages versus the new
  algorithm's O(N^2).

The original tech report gives only a draft algorithm ("[5] ... presented
just a draft of their resolution algorithm, without discussing assumptions
under which the algorithm may work"), so this module is a faithful
*reconstruction* driven by those three properties:

* ``CR_EXCEPTION`` broadcasts (ACKed with ``CR_ACK``) carry raised
  exceptions, including domino re-raises;
* because every participant resolves for itself, agreement that the raised
  set is stable is reached by fingerprint voting: each quiescent
  participant broadcasts ``CR_STABLE`` with a fingerprint of its known
  set, and re-votes whenever a new exception invalidates the round.

Cost structure: every domino re-raise spends Θ(N) messages itself and
invalidates a Θ(N²) voting round.  With the adversarial chain workload
(``domino_chain_tree``) the chain length grows with N, giving the Θ(N³)
total the paper ascribes to CR — while the new algorithm on the same
workload stays at 3(N-1).

Exception and ACK are :mod:`repro.core.messages`' under ``CR_*`` kinds;
``RECEIVE`` below is the receive rule, each row a §4.2 clause or a delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.messages import AckMsg, ExceptionMsg
from repro.core.variants import VARIANTS, ActionRun, Setup
from repro.exceptions.handlers import Handler, ReducedHandlerSet
from repro.exceptions.tree import ExceptionClass, ResolutionTree
from repro.net.message import Message
from repro.objects.base import DistributedObject
from repro.objects.naming import canonical_name
from repro.objects.runtime import Runtime

KIND_CR_EXCEPTION = "CR_EXCEPTION"
KIND_CR_ACK = "CR_ACK"
KIND_CR_STABLE = "CR_STABLE"

#: Message kinds charged to the CR baseline.
CR_KINDS = frozenset({KIND_CR_EXCEPTION, KIND_CR_ACK, KIND_CR_STABLE})


@dataclass(frozen=True)
class CRStableMsg:
    """A vote on the known raised set: CR's own agreement, not in §4.1."""

    action: str
    sender: str
    fingerprint: frozenset


class CRParticipant(DistributedObject):
    """One participant of a flat atomic action under the CR mechanism."""

    def __init__(
        self,
        name: str,
        action: str,
        group: tuple[str, ...],
        tree: ResolutionTree,
        reduced: ReducedHandlerSet,
    ) -> None:
        super().__init__(name)
        self.action = action
        self.group = group
        self.others = tuple([g for g in group if g != name])
        self.tree = tree
        self.reduced = reduced
        #: Exceptions known to have been raised, with their raiser.
        self.known: set[tuple[str, ExceptionClass]] = set()
        #: Exceptions this object itself raised (primary or domino).
        self.raised: set[ExceptionClass] = set()
        self._acks_awaited = 0
        #: The one ACK payload this object ever sends, shared by every reply.
        self._ack = AckMsg(action, name, KIND_CR_EXCEPTION)
        self._voted_fingerprint: Optional[frozenset] = None
        self._votes: dict[str, frozenset] = {}
        self.handled: Optional[ExceptionClass] = None
        self.resolved: Optional[ExceptionClass] = None
        #: How many times this object resolved and handled.
        self.activations = 0

    def handled_in(self, action: str) -> Optional[str]:
        """The verdict this object holds for ``action``: participants agree
        on the *resolved* exception and each handles its own cover of it."""
        resolved = self.resolved
        return None if resolved is None or action != self.action else resolved.name()

    # -- raising ------------------------------------------------------------------

    def raise_exception(self, exception: ExceptionClass) -> None:
        """Raise locally and inform everyone (primary or domino source)."""
        if self.handled is not None:
            return  # recovery already decided
        if exception in self.raised:
            return
        self.raised.add(exception)
        self.known.add((self.name, exception))
        self._invalidate_vote()
        self._acks_awaited += len(self.others)
        self.send_many(
            self.others, KIND_CR_EXCEPTION,
            ExceptionMsg(self.action, self.name, exception),
        )
        self._maybe_domino(exception)
        self._maybe_vote()

    # -- RECEIVE effects --------------------------------------------------------------

    def _on_exception(self, message: Message) -> None:
        """(4c) ``<A, O_j, E_j> -> LE_i; ACK => O_j``.  delta: with no handler
        for E_j, raise its cover (the §3.3 domino); a new one re-opens the vote."""
        payload: ExceptionMsg = message.payload
        self.send(payload.sender, KIND_CR_ACK, self._ack)
        if (payload.sender, payload.exception) in self.known:
            return
        self.known.add((payload.sender, payload.exception))
        self._invalidate_vote()
        self._maybe_domino(payload.exception)
        self._maybe_vote()

    def _maybe_domino(self, exception: ExceptionClass) -> None:
        """The third source: no local handler → raise the nearest covered
        ancestor (Section 3.3's chain-climbing)."""
        if self.handled is not None:
            return
        if self.reduced.handles(exception):
            return
        cover = self.reduced.cover_for(exception)
        if cover not in {exc for _, exc in self.known}:
            self.raise_exception(cover)

    def _on_ack(self, message: Message) -> None:
        """(6) ``<O_j> -> LP_i``, counted down in ``_acks_awaited``."""
        self._acks_awaited -= 1
        self._maybe_vote()

    def _on_stable(self, message: Message) -> None:
        """delta: a vote in place of (7)-(8): each resolves once all agree."""
        payload: CRStableMsg = message.payload
        self._votes[payload.sender] = payload.fingerprint
        self._maybe_resolve()

    RECEIVE = {KIND_CR_EXCEPTION: _on_exception, KIND_CR_ACK: _on_ack, KIND_CR_STABLE: _on_stable}

    # -- stability voting ---------------------------------------------------------------

    def _fingerprint(self) -> frozenset:
        return frozenset((sender, exc.name()) for sender, exc in self.known)

    def _invalidate_vote(self) -> None:
        self._voted_fingerprint = None

    def _maybe_vote(self) -> None:
        """Broadcast this participant's current resolution proposal.

        CR participants re-resolve and re-share after *every* exception
        ("look through it after raising each exception and after each
        resolution") — there is no quiescence gating, which is exactly
        what makes the mechanism Θ(N) proposal rounds of Θ(N²) messages.
        """
        if self.handled is not None or not self.known:
            return
        fingerprint = self._fingerprint()
        if self._voted_fingerprint == fingerprint:
            return
        self._voted_fingerprint = fingerprint
        self._votes[self.name] = fingerprint
        self.send_many(
            self.others, KIND_CR_STABLE,
            CRStableMsg(self.action, self.name, fingerprint),
        )
        self._maybe_resolve()

    def _maybe_resolve(self) -> None:
        """Every participant resolves for itself once all votes agree."""
        if self.handled is not None:
            return
        fingerprint = self._voted_fingerprint
        if fingerprint is None:
            return
        if any(self._votes.get(name) != fingerprint for name in self.group):
            return
        exceptions = [exc for _, exc in self.known]
        self.resolved = self.tree.resolve(exceptions)
        # Each participant handles its own cover of the resolved exception
        # (the resolved one itself may have no local handler).
        self.handled = self.reduced.cover_for(self.resolved)
        self.activations += 1
        self.runtime.trace.record(
            self.sim_now, "cr.handle", self.name,
            resolved=self.resolved.name(), handled=self.handled.name(),
        )


# -- workload construction ----------------------------------------------------------


def domino_chain_tree(
    n_participants: int, levels_per_participant: int = 2
) -> tuple[ResolutionTree, list[ExceptionClass]]:
    """The Section 3.3 adversarial shape, generalised to N participants.

    A directed chain ``e_0 ← e_1 ← ... ← e_L`` with ``L = n * levels``;
    participant ``i`` handles exactly the chain positions congruent to
    ``i`` (mod N), so every exception informs a participant that must
    re-raise one level higher — the full domino.
    """
    from repro.exceptions.declarations import declare_exception

    length = n_participants * levels_per_participant + 1
    chain = [declare_exception(f"Chain_{i}") for i in range(length)]
    tree = ResolutionTree.chain(chain)
    return tree, chain


def reduced_set_for(
    tree: ResolutionTree,
    chain: list[ExceptionClass],
    participant_index: int,
    n_participants: int,
) -> ReducedHandlerSet:
    """Handlers at chain positions ``≡ participant_index (mod N)``, plus
    the root (required for totality)."""
    mine = {
        exc: Handler.completing()
        for position, exc in enumerate(chain)
        if position % n_participants == participant_index or position == 0
    }
    return ReducedHandlerSet(tree, mine)


def build(setup: Setup) -> dict[str, CRParticipant]:
    """The variant's part of :func:`repro.core.variants.run_action`:
    concurrent primary exceptions.

    This is the paper's motivating situation (several errors detected
    quasi-simultaneously).  Every participant has handlers for all leaf
    exceptions (no dominoes), isolating the cost of CR's
    everyone-resolves agreement.  With the ``stagger`` option larger than
    a network round-trip, each raise lands after the previous agreement
    round has settled and invalidates it, so the votes re-run per raise —
    Θ(N) rounds of Θ(N²) votes, the O(N³) worst case the paper charges CR
    with.  The new algorithm is immune: a later raise merges into the one
    resolution and the count stays ``(N-1)(2P+1)`` (case 3, Section 4.4).
    """
    full = {exc: Handler.completing() for exc in setup.tree.members}
    return _register(
        setup.runtime, setup.names, setup.tree,
        lambda index: ReducedHandlerSet(setup.tree, dict(full)),
    )


def _register(runtime, names, tree, reduced_for) -> dict[str, CRParticipant]:
    participants: dict[str, CRParticipant] = {}
    for index, name in enumerate(names):
        participant = CRParticipant(name, "A1", names, tree, reduced_for(index))
        runtime.register(participant)
        participants[name] = participant
    return participants


def run_cr_domino(
    n: int,
    levels_per_participant: int = 2,
    initial_raisers: int = 1,
    seed: int = 0,
    latency=None,
) -> ActionRun:
    """Run the CR baseline on the adversarial domino-chain workload.

    The deepest chain exception is raised by the last participant(s); the
    reduced handler sets force a re-raise cascade all the way to the root.
    A different workload from :func:`~repro.core.variants.run_action`'s
    (a chain tree, reduced handler sets, the *last* participants raising),
    measured the same way.
    """
    tree, chain = domino_chain_tree(n, levels_per_participant)
    names = tuple(canonical_name(i) for i in range(n))
    runtime = Runtime(seed=seed, latency=latency)
    participants = _register(
        runtime, names, tree,
        lambda index: reduced_set_for(tree, chain, index, n),
    )
    deepest = chain[-1]
    for i in range(initial_raisers):
        raiser = participants[names[-(i + 1)]]
        runtime.sim.schedule(
            1.0, lambda r=raiser: r.raise_exception(deepest),
            label=f"cr-raise:{raiser.name}",
        )
    runtime.run(max_events=2_000_000)
    return ActionRun(VARIANTS["cr"], runtime, participants)
