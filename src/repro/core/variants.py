"""One way to run an action: :func:`run_action` over a registry of variants.

The Section 4.2 algorithm and every variant this repo sets beside it run
the same Section 4.4 workload — N participants of one action ``A1``, the
first P raising concurrently, the next Q sitting in nested actions — and
are asked the same questions afterwards: who handled what, and what did it
cost in messages.  This module hosts all of them once:

* :class:`Member` — the participant shell the variant engines share:
  identity, one :class:`~repro.core.state.ResolutionCtx` (base's N/X/S/R,
  LE, LO, ACKs awaited and Commit), the ``handled`` verdict, the one
  ``_handle`` that activates the resolved handler and the one nested
  abortion (the receive rule is the variant class's ``RECEIVE`` table, the
  progress step its ``PROGRESS``);
* :func:`commit_step` — the resolver's (8), shared by every variant that
  elects one;
* :class:`VariantSpec` and :data:`VARIANTS` — one row of facts per variant
  (what it counts, its closed form, whether it nests or detects failures,
  the two run defaults that differ and its extra options) — the only list
  of variant names in the repo;
* :func:`run_action` — validation, exception tree, ``Runtime``,
  registration, raise and crash scheduling and the run, for any row;
* :class:`ActionRun` — the one result type, which ``Scenario.run()``
  returns too, and its one answer to "who handled what":
  :meth:`ActionRun.handled` over each participant's ``handled_in``.

The Member variants write base's trace vocabulary — ``resolution.join``,
``resolution.commit``, ``abort.start``, ``abort.done`` and one
``resolution.handle`` — with a ``variant`` detail naming the variant, so
one reader serves them all.  A dedicated coordinator's commit, which also
ends its resolution, is ``coordinator.commit``.

The engines (``crash_tolerant``, ``multicast_variant``,
``centralized_variant``, ``cr_baseline``) are imported on a variant's
first run, so importing the registry costs no engine.  ``base`` has no
engine ``build``: ``run_action("base", ...)`` is
``general_case(...).run()``, whose raises and action entries are the
behaviour steps the goldens pin.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from importlib import import_module
from typing import Callable, NamedTuple, Optional

from repro.analysis import formulas
from repro.core.messages import CommitMsg, NestedCompletedMsg
from repro.core.state import PState, ResolutionCtx
from repro.exceptions.declarations import UniversalException, declare_exception
from repro.exceptions.handlers import HandlerSet
from repro.exceptions.tree import ExceptionClass, ResolutionTree
from repro.net.message import Message
from repro.objects.base import DistributedObject
from repro.objects.naming import canonical_name
from repro.objects.runtime import Runtime
from repro.simkernel.trace import TraceLevel


class Member(DistributedObject):
    """What a variant's participant keeps: its protocol state is one
    :class:`ResolutionCtx`, ``ctx``, in base's vocabulary.

    A variant's receive rule is its class's ``RECEIVE`` table, kind ->
    effect, bound at construction; its progress step is ``PROGRESS``, state
    -> row, run as ``self.PROGRESS[self.ctx.state](self)`` after each event
    that may advance it.  Each effect's and row's docstring opens with the
    §4.2 clause it mirrors or with ``delta:``; ``UNPROGRESSED`` names each
    state a variant gives no row, and why.

    A member ``nested_depth`` levels deep in nested actions aborts them on
    being informed (``_start_abort``), taking ``abort_duration`` per level,
    and then tells the group, signalling ``abort_signal`` if it is set.
    """

    #: The variant's tag: the ``variant`` detail of its records.
    tag = ""
    #: The category of :func:`commit_step`'s record for this resolver.
    commit_category = "resolution.commit"
    #: The message kind of the variant's NestedCompleted.
    KIND_NESTED_COMPLETED = ""
    PROGRESS: dict[PState, Callable] = {}
    UNPROGRESSED: dict[PState, str] = {}

    def __init__(
        self, name: str, action: str, tree: ResolutionTree, handlers: HandlerSet,
        nested_depth: int = 0, abort_duration: float = 0.0,
        abort_signal: Optional[ExceptionClass] = None,
    ) -> None:
        super().__init__(name)
        self.action = action
        self.tree = tree
        self.handlers = handlers
        self.nested_depth = nested_depth
        self.abort_duration = abort_duration
        self.abort_signal = abort_signal
        self.handled: Optional[ExceptionClass] = None
        #: How many times ``_handle`` ran; a restart does not reset it.
        self.activations = 0
        self.ctx = ResolutionCtx(action)
        #: True at FULL trace level (cached in attach): the one test that
        #: guards the FULL-only ``resolution.join`` / ``state`` / ``raise``
        #: and ``abort.start`` / ``abort.done``.
        self._full = False

    def attach(self, runtime: Runtime) -> None:
        super().attach(runtime)
        self._full = runtime.trace._full

    def _enter(
        self,
        state: PState,
        cause: Optional[int] = None,
        raised: Optional[ExceptionClass] = None,
    ) -> None:
        """Join the resolution in ``state`` — X on raising ``raised``, S on
        being informed by message ``cause``; a no-op once joined."""
        ctx = self.ctx
        if ctx.state is not PState.NORMAL:
            return
        ctx.state = state
        if self._full:
            record, now, me = self.runtime.trace.record, self.sim_now, self.name
            record(
                now, "resolution.join", me,
                action=self.action, variant=self.tag, cause=cause,
            )
            # ``_value_``: the member's own attribute, not Enum's descriptor call.
            record(now, "state", me, action=self.action, state=state._value_)
            if raised is not None:
                record(
                    now, "raise", me, action=self.action, exception=raised.name()
                )

    def _handle(self, exception: ExceptionClass, cause: Optional[int] = None) -> None:
        """Activate the handler for the resolved ``exception`` (S/X -> R)."""
        self.handled = exception
        if self._full:
            self._enter(PState.SUSPENDED, cause)  # the Commit raced ahead of everything
            self.runtime.trace.record(
                self.sim_now, "state", self.name,
                action=self.action, state="R", cause=cause,
            )
        self.ctx.state = PState.READY
        self.activations += 1
        self.runtime.trace.record(
            self.sim_now, "resolution.handle", self.name,
            variant=self.tag, exception=exception.name(), cause=cause,
        )

    def _on_commit(self, message: Message) -> None:
        """(9)/(10) start the handler for E; the resolver waited for every
        status (mc's flush round, cd's coordinator), so nothing is left to
        wait for."""
        payload: CommitMsg = message.payload
        self.ctx.commit = payload
        if self.handled is None:
            self._handle(payload.exception, message.msg_id)

    def handled_in(self, action: str) -> Optional[str]:
        """The verdict this member holds for ``action``: its final
        ``handled``, so a ct upgrade counts."""
        handled = self.handled
        return None if handled is None or action != self.action else handled.name()

    def _progress_r(self) -> None:
        """(9) done: the handler for the verdict has started; nothing is
        left to advance."""

    # -- nested abortion -------------------------------------------------------------

    def _start_abort(self) -> None:
        """(4a) abort the nested chain, one abortion handler per level; this
        member joins its own LO and ``_nested_completed`` ends the abortion."""
        self.ctx.lo.add(self.name)
        if self._full:
            self.runtime.trace.record(
                self.sim_now, "abort.start", self.name,
                action=self.action, variant=self.tag, depth=self.nested_depth,
            )
        self.runtime.sim.schedule(
            self.abort_duration * self.nested_depth,
            self._nested_completed,
            label=f"{self.tag}-abort:{self.name}",
        )

    def _nested_completed(self) -> None:
        """(5) at the aborting member: NestedCompleted, with the abortion's
        signal, to its own LE and to the group through the variant's
        ``_fan_out(kind, payload)``."""
        if self.crashed or self.handled is not None:
            return  # died mid-abortion, or an outer commit overtook it
        ctx = self.ctx
        signal = self.abort_signal
        ctx.nested_completed.add(self.name)
        if signal is not None:
            ctx.le[self.name] = signal
        self._fan_out(
            self.KIND_NESTED_COMPLETED,
            NestedCompletedMsg(self.action, self.name, signal),
        )
        if self._full:
            self.runtime.trace.record(
                self.sim_now, "abort.done", self.name, action=self.action,
                variant=self.tag, signal=signal.name() if signal else None,
            )
        self.PROGRESS[ctx.state](self)

    def _on_nested_completed(self, message: Message) -> None:
        """(5) if ``E_j /= null`` then ``<A, O_j, E_j> -> LE_i``; no ACK."""
        payload: NestedCompletedMsg = message.payload
        ctx = self.ctx
        ctx.nested_completed.add(payload.sender)
        if payload.exception is not None:
            ctx.le[payload.sender] = payload.exception
        self.PROGRESS[ctx.state](self)


def commit_step(
    resolver, ctx: ResolutionCtx, fan_out: Callable, handle: Optional[Callable] = None,
    record_raisers: bool = True,
) -> None:
    """(8) ``resolver`` resolves LE and commits: ``ctx.commit``, its
    ``commit_category`` record (mc's carries no raiser list), the
    ``resolution.commits`` count, ``fan_out(commit)``, then ``handle`` (a
    coordinator has none)."""
    resolved = resolver.tree.resolve(ctx.le.values())
    ctx.commit = commit = CommitMsg(ctx.action, resolver.name, resolved, tuple(sorted(ctx.le)))
    raisers = {"raisers": commit.raisers} if record_raisers else {}
    resolver.runtime.trace.record(
        resolver.sim_now, resolver.commit_category, resolver.name,
        action=ctx.action, variant=resolver.tag, exception=resolved.name(),
        **raisers,
    )
    resolver.runtime.metrics.counter("resolution.commits").inc()
    fan_out(commit)
    if handle is not None:
        handle(resolved)


# -- the registry --------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """The facts about one variant that anything outside its engine needs."""

    tag: str
    #: Where the paper (or this repo) defines it, and what it is.
    source: str
    #: Leaves of the action's flat exception tree are ``<prefix>_<i>``.
    prefix: str
    #: ``module:NAME`` of the message kinds charged to the variant.
    kinds: str
    #: The closed form as text, and as ``(n, p, q) -> count`` for a
    #: fault-free run (``None``: measured only).
    closed_form: str
    expected: Optional[Callable[[int, int, int], int]]
    #: ``module:function`` taking ``(setup, **options)`` and returning the
    #: registered participants by name; ``None`` for ``base``, whose
    #: ``general_case`` builds the whole scenario.
    build: Optional[str] = None
    #: Does it model nested actions (Q > 0)?
    nests: bool = False
    #: Does it carry a failure detector?  Without one a mid-protocol crash
    #: stalls the survivors — documented, and classified as expected.
    detects_failures: bool = False
    #: Is it served, swept by the fault matrix and offered by the CLI?
    servable: bool = True
    #: ``messages()`` counts multicast operations, not the unicasts below.
    multicast: bool = False
    #: A dedicated resolver object beside the participants: it resolves,
    #: can be crashed by name (event label ``crash-<name>``) and sits on
    #: the network.  ``None``: the biggest raiser resolves.
    coordinator: Optional[str] = None
    #: Virtual time by which a fault-free run has resolved, for a variant
    #: that never quiesces (heartbeats); ``None``: it stops on its own.
    horizon: Optional[float] = None
    #: When the raisers raise, and when a run stops (``None``: once quiet).
    raise_at: float = 10.0
    until: Optional[float] = None
    #: Keyword options beyond the common ones of :func:`run_action`.
    options: tuple[str, ...] = ()

    def resolver(self, p: int) -> str:
        """Who resolves when the first ``p`` participants raise."""
        return self.coordinator or canonical_name(p - 1)


VARIANTS: dict[str, VariantSpec] = {
    spec.tag: spec
    for spec in (
        VariantSpec(
            "base", "§4.2, the decentralised algorithm", "GeneralExc",
            "repro.core.messages:RESOLUTION_KINDS",
            "(N-1)(2P+3Q+1) messages", formulas.general_messages,
            nests=True,
            options=(
                "policy", "abort_duration", "nested_work", "resolver_group_size",
            ),
        ),
        VariantSpec(
            "ct", "beyond the paper: crash-tolerant, with crash-restart", "CT",
            "repro.core.crash_tolerant:CT_KINDS",
            "(N-1)(2P+2Q+1) messages", formulas.crash_tolerant_messages,
            build="repro.core.crash_tolerant:build",
            nests=True, detects_failures=True, horizon=80.0,
            until=200.0,  # heartbeats never fall quiet: a run needs an end
            options=(
                "hb_interval", "hb_timeout", "abort_duration", "nested_signal",
                "restart_at", "durable_dir", "wal_fsync", "work_at",
            ),
        ),
        VariantSpec(
            "mc", "§4.5, reliable multicast with a flush round", "MC",
            "repro.core.multicast_variant:MC_KINDS",
            "N+Q+1 multicasts", formulas.multicast_operations,
            build="repro.core.multicast_variant:build",
            nests=True, multicast=True,
            raise_at=1.0,  # the golden mc service grid, span forest and fan-out hash pin t=1
            options=("abort_duration",),
        ),
        VariantSpec(
            "cd", "§4.5, centralised: a coordinator resolves", "CD",
            "repro.core.centralized_variant:CD_KINDS",
            "3N-2+P messages", formulas.centralized_messages,
            build="repro.core.centralized_variant:build",
            coordinator="coord",
        ),
        VariantSpec(
            "cr", "§3.3, the Campbell-Randell baseline (reconstructed)", "CRC",
            "repro.core.cr_baseline:CR_KINDS",
            "O(N^3) messages, measured", None,
            build="repro.core.cr_baseline:build",
            servable=False,
            raise_at=1.0,  # the pinned cr fan-out hash was recorded at t=1
            options=("stagger",),
        ),
    )
}

#: The variants the service runs, the fault matrix sweeps and the CLI offers.
SERVABLE = tuple(tag for tag, spec in VARIANTS.items() if spec.servable)


#: The livelock budget of every engine's run; ``base`` sizes its own.
MAX_EVENTS = 5_000_000


@cache
def _load(ref: str):
    """``module:attr``, importing the engine module on first use."""
    module, _, attr = ref.partition(":")
    return getattr(import_module(module), attr)


# -- the host ------------------------------------------------------------------------


@cache
def _leaf(prefix: str, index: int) -> ExceptionClass:
    return declare_exception(f"{prefix}_{index}")


@cache
def flat_tree(
    leaves: int, prefix: str
) -> tuple[ResolutionTree, tuple[ExceptionClass, ...], HandlerSet]:
    """Root plus ``leaves`` sibling exceptions ``<prefix>_<i>``: the tree,
    its leaves and its complete handler set.

    All three are immutable and the same for every action of that shape,
    so they are made once per ``(leaves, prefix)`` and each leaf class once
    per name (at most max P entries per prefix).  One class per generated
    name also means every generated leaf pickles: the "only the newest
    class of that name" caveat of
    :func:`~repro.exceptions.declarations.declare_exception` never arises.
    """
    classes = tuple([_leaf(prefix, i) for i in range(leaves)])
    tree = ResolutionTree(
        UniversalException, {cls: UniversalException for cls in classes}
    )
    return tree, classes, HandlerSet.completing_all(tree)


class Setup(NamedTuple):
    """What :func:`run_action` hands an engine's ``build``."""

    runtime: Runtime
    names: tuple[str, ...]
    tree: ResolutionTree
    #: ``leaves[i]`` is what ``names[i]`` raises, for ``i < p``.
    leaves: tuple
    handlers: HandlerSet
    p: int
    q: int
    raise_at: float
    crashes: tuple[tuple[str, float], ...]
    #: Callables a build leaves behind for the host to call once the run
    #: has ended (ct: closing the write-ahead logs).
    after_run: list


@dataclass
class ActionRun:
    """Outcome of one run: :func:`run_action` or ``Scenario.run()``."""

    spec: VariantSpec
    runtime: Runtime
    participants: dict
    crashed: tuple[str, ...] = ()
    #: base only: the behaviour runners — a base participant is done when
    #: its behaviour has left the action, not when its handler started —
    #: and the action manager, which holds each action's status.
    runners: Optional[dict] = None
    manager: Optional[object] = None

    def __del__(self) -> None:
        # The run is this runtime's one owner: dropping it frees the whole
        # object graph by reference counting (see Runtime.release).
        self.runtime.release()

    @property
    def variant(self) -> str:
        return self.spec.tag

    @property
    def duration(self) -> float:
        """Virtual time at which the run stopped."""
        return self.runtime.sim.now

    def survivors(self) -> list:
        return [
            p for name, p in self.participants.items() if name not in self.crashed
        ]

    def handled(self, action: str = "A1") -> dict[str, str]:
        """Participant -> the exception it handled in ``action``, for all
        that handled one: the verdict each participant holds."""
        handled = {}
        for name, participant in self.participants.items():
            exception = participant.handled_in(action)
            if exception is not None:
                handled[name] = exception
        return handled

    # The frozen perf harness calls this name.
    handlers_started = handled

    def double_handled(self) -> list[str]:
        """One line per repeated activation: base, a second handler in one
        incarnation of an action; the others, a second ``_handle``."""
        doubles: list[str] = []
        for name, participant in self.participants.items():
            if self.runners is None:
                doubles += [f"{name} activated a handler twice"] * (
                    participant.activations - 1
                )
                continue
            seen = set()
            for execution in participant.handler_log:
                key = (execution.action, execution.incarnation)
                if key in seen:
                    doubles.append(
                        f"{name} handled twice in {execution.action} "
                        f"incarnation {execution.incarnation}"
                    )
                seen.add(key)
        return doubles

    def all_handled(self) -> bool:
        """Did every survivor start a resolved handler?"""
        handled = self.handled()
        return all(name in handled for name in self.participants
                   if name not in self.crashed)

    def all_finished(self) -> bool:
        """Is every survivor done?  base: its behaviour has left the
        action; the others: its handler started."""
        if self.runners is None:
            return self.all_handled()
        return all(
            runner.finished for name, runner in self.runners.items()
            if name not in self.crashed
        )

    def handled_exceptions(self) -> set[str]:
        """What the survivors handled (one name when they agree)."""
        return {
            exception for name, exception in self.handled().items()
            if name not in self.crashed
        }

    # -- base: per-action outcomes and traffic ----------------------------------

    def status(self, action: str):
        return self.manager.instance(action).status

    def handled_exception(self, action: str):
        return self.manager.instance(action).handled_exception

    def messages_by_kind(self) -> Counter:
        return Counter(self.runtime.network.sent_by_kind)

    def messages_for_action(self, action: str) -> Counter:
        """Per-kind messages of the variant's kinds belonging to ``action``."""
        kinds = set(_load(self.spec.kinds))
        counts: Counter = Counter()
        for entry in self.runtime.trace.by_category("msg.send"):
            details = entry.details
            if details.get("action") == action and details.get("kind") in kinds:
                counts[details["kind"]] += 1
        return counts

    def commit_entries(self, action: str):
        return [
            e
            for e in self.runtime.trace.by_category("resolution.commit")
            if e.details.get("action") == action
        ]

    def unicasts(self) -> int:
        """Network messages of the variant's kinds."""
        return self.runtime.network.total_sent(set(_load(self.spec.kinds)))

    def messages(self) -> int:
        """The variant's cost metric — what its closed form counts."""
        kinds = set(_load(self.spec.kinds))
        if self.spec.multicast:
            return self.runtime.multicast.total_operations(kinds)
        return self.runtime.network.total_sent(kinds)

    # The frozen perf harness calls this name; base's cost metric.
    resolution_message_total = messages

    # -- ct: membership view, crash-restart and durable state --------------------

    def final_view(self):
        """The action group's last membership view (suspects have left)."""
        (group,) = self.runtime.membership.groups()
        return self.runtime.membership.view(group)

    @property
    def restarted(self) -> tuple[str, ...]:
        """Crash victims whose node came back and replayed its log."""
        return tuple(
            name for name in self.crashed
            if getattr(self.participants.get(name), "restarted", False)
        )

    @property
    def stores(self) -> Optional[dict]:
        """Each member's durable store, when the run was given a
        ``durable_dir``; ``None`` for a volatile run."""
        stores = {
            name: getattr(participant, "store", None)
            for name, participant in self.participants.items()
        }
        return stores if None not in stores.values() else None


def run_action(
    variant: str,
    n: int,
    p: int,
    q: int = 0,
    *,
    seed: int = 0,
    latency=None,
    raise_at: Optional[float] = None,
    crashes=(),
    failure_plan=None,
    reliable: bool = False,
    ack_timeout: float = 5.0,
    max_retries: int = 60,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
    trace_level: TraceLevel = TraceLevel.FULL,
    **options,
) -> ActionRun:
    """Run one ``variant`` action of ``n`` participants to the end.

    The first ``p`` participants raise at ``raise_at``; the next ``q`` sit
    in nested actions they abort (variants that nest).  ``crashes`` lists
    ``(name, time)`` node deaths, scheduled in the order given — a
    coordinator is crashed by its name like anyone else.
    ``failure_plan``/``reliable`` run the protocol over a faulty channel
    with the ARQ transport underneath.  ``None`` for ``raise_at`` or
    ``until`` means the variant's own default (:class:`VariantSpec`), and
    for ``max_events`` :data:`MAX_EVENTS` (``base``: its scenario's
    budget); ``options`` are the variant's extra keywords, documented on
    its engine's ``build``.
    """
    spec = VARIANTS.get(variant)
    if spec is None:
        raise ValueError(
            f"unknown variant {variant!r} (expected one of {tuple(VARIANTS)})"
        )
    if options and not set(options) <= set(spec.options):
        raise TypeError(
            f"{variant} takes no option "
            f"{sorted(set(options) - set(spec.options))} "
            f"(its options: {spec.options})"
        )
    if not 1 <= p <= n:
        raise ValueError(f"bad raiser count {p} for n={n}")
    if not 0 <= q <= (n - p if spec.nests else 0):
        raise ValueError(
            f"bad nested count {q} for n={n}, raisers={p}"
            + ("" if spec.nests else f" ({variant} is a flat variant)")
        )
    crashes = tuple(crashes)
    victims = tuple([victim for victim, _ in crashes])
    if raise_at is None:
        raise_at = spec.raise_at
    if until is None:
        until = spec.until

    if spec.build is None:
        # base: general_case owns the names, the tree, the Runtime, the
        # behaviours that raise and the crash scheduling (and checks the
        # victims); its scenario knows how many events its traffic needs.
        from repro.workloads.generator import general_case

        return general_case(
            n, p, q, latency=latency, seed=seed, raise_at=raise_at,
            trace_level=trace_level, failure_plan=failure_plan,
            reliable=reliable, ack_timeout=ack_timeout,
            max_retries=max_retries, crashes=crashes, **options,
        ).run(until=until, max_events=max_events)

    names = tuple([canonical_name(i) for i in range(n)])
    if victims:
        unknown = set(victims) - set(names) - {spec.coordinator}
        if unknown:
            raise ValueError(f"cannot crash unknown members: {sorted(unknown)}")
    tree, leaves, handlers = flat_tree(p, spec.prefix)
    runtime = Runtime(
        seed=seed, latency=latency, failure_plan=failure_plan,
        reliable=reliable, ack_timeout=ack_timeout, max_retries=max_retries,
        trace_level=trace_level,
    )
    setup = Setup(
        runtime, names, tree, leaves, handlers, p, q, raise_at, crashes, [],
    )
    # cr only (checked above): raiser i raises at raise_at + i * stagger.
    stagger = options.pop("stagger", 0.0)
    participants = _load(spec.build)(setup, **options)
    schedule = runtime.sim.schedule
    for i in range(p):
        schedule(
            raise_at + i * stagger,
            lambda r=participants[names[i]], e=leaves[i]: r.raise_exception(e),
            label=f"{spec.tag}-raise:{names[i]}",
        )
    for victim, at in crashes:
        schedule(
            at,
            lambda v=victim: runtime.crash_node(f"node:{v}"),
            label=(
                f"crash-{victim}" if victim == spec.coordinator
                else f"crash:{victim}"
            ),
        )
    runtime.run(until=until, max_events=MAX_EVENTS if max_events is None else max_events)
    for done in setup.after_run:
        done()
    return ActionRun(spec, runtime, participants, victims)
