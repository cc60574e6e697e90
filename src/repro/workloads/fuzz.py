"""Random nested-scenario generation for protocol fuzzing.

Builds random but *well-formed* CA-action worlds: a random tree of nested
actions (participant sets shrinking along each nesting edge), behaviours
that enter the actions consistently with the nesting, random raisers at
random times and levels, random abortion-handler signals and durations.

Used by the property suite to check the paper's guarantees — termination
and per-action handler agreement — over a workload space far larger than
the worked examples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.abortion import AbortionHandler
from repro.core.action import CAActionDef
from repro.core.state import PState
from repro.exceptions.declarations import UniversalException, declare_exception
from repro.exceptions.handlers import HandlerSet
from repro.exceptions.tree import ExceptionClass, ResolutionTree
from repro.net.latency import ConstantLatency, UniformLatency
from repro.workloads.behaviour import ActionBlock, Compute, Raise, Step
from repro.workloads.scenarios import ParticipantSpec, Scenario


@dataclass
class FuzzPlan:
    """A recipe for one random scenario (kept for shrinking/debugging)."""

    seed: int
    n_participants: int
    max_depth: int
    raise_probability: float
    signal_probability: float
    actions: list[CAActionDef] = field(default_factory=list)
    raisers: list[tuple[str, str]] = field(default_factory=list)  # (obj, action)

    def describe(self) -> str:
        return (
            f"FuzzPlan(seed={self.seed}, n={self.n_participants}, "
            f"actions={[a.name for a in self.actions]}, raisers={self.raisers})"
        )


@dataclass
class _ActionNode:
    definition: CAActionDef
    children: list["_ActionNode"] = field(default_factory=list)


def build_random_scenario(
    seed: int,
    n_participants: int = 4,
    max_depth: int = 3,
    raise_probability: float = 0.5,
    signal_probability: float = 0.3,
    random_latency: bool = True,
    failing_attempts: int = 0,
) -> tuple[Scenario, FuzzPlan]:
    """Generate a random nested scenario.

    Guarantees at least one raiser (otherwise there is no resolution to
    check), and at most one raise per object per action level (the
    Section 4.1 assumption).

    ``failing_attempts`` > 0 attaches a backward-recovery acceptance test
    to the ROOT action that fails that many times before passing —
    composing Figure 2(b) retries with whatever exceptions the attempt
    raised.
    """
    rng = random.Random(seed)
    plan = FuzzPlan(
        seed, n_participants, max_depth, raise_probability, signal_probability
    )
    names = [f"O{i:02d}" for i in range(n_participants)]

    exceptions: dict[str, list[ExceptionClass]] = {}

    def make_tree(action_name: str, leaves: int) -> ResolutionTree:
        excs = [
            declare_exception(f"Fz_{seed}_{action_name}_{i}")
            for i in range(leaves)
        ]
        # Randomly chain some exceptions under others for deeper trees.
        parents: dict[ExceptionClass, ExceptionClass] = {}
        for i, exc in enumerate(excs):
            pool = [UniversalException] + excs[:i]
            parents[exc] = rng.choice(pool)
        exceptions[action_name] = excs
        return ResolutionTree(UniversalException, parents)

    # -- random action tree ----------------------------------------------------
    counter = [0]
    attempts_seen = [0]

    def root_acceptance() -> bool:
        attempts_seen[0] += 1
        return attempts_seen[0] > failing_attempts

    def grow(parent: CAActionDef | None, members: list[str], depth: int) -> _ActionNode:
        counter[0] += 1
        name = f"A{counter[0]}"
        is_root = parent is None
        definition = CAActionDef(
            name,
            tuple(members),
            make_tree(name, leaves=max(1, len(members))),
            parent=parent.name if parent else None,
            acceptance=root_acceptance if is_root and failing_attempts else None,
            max_attempts=failing_attempts + 1 if is_root else 1,
        )
        plan.actions.append(definition)
        node = _ActionNode(definition)
        if depth < max_depth and len(members) >= 1 and rng.random() < 0.8:
            n_children = rng.randint(0, 2)
            available = list(members)
            for _ in range(n_children):
                if not available:
                    break
                size = rng.randint(1, len(available))
                rng.shuffle(available)
                child_members = sorted(available[:size])
                # Sibling actions get disjoint participant sets so a
                # participant's entered actions always form a chain.
                available = available[size:]
                node.children.append(grow(definition, child_members, depth + 1))
        return node

    root = grow(None, names, depth=1)

    # -- behaviours ------------------------------------------------------------
    raisers_chosen = False

    def behaviour_for(name: str, node: _ActionNode) -> list[Step]:
        nonlocal raisers_chosen
        steps: list[Step] = [Compute(rng.uniform(0.0, 6.0))]
        child = next(
            (c for c in node.children if name in c.definition.participants), None
        )
        if child is not None:
            # A declared participant must (try to) enter the nested action
            # — the model's contract; belatedness still arises from the
            # random compute delays before this step.
            steps.append(
                ActionBlock(child.definition.name, behaviour_for(name, child))
            )
        if rng.random() < raise_probability:
            exc = rng.choice(exceptions[node.definition.name])
            steps.append(Compute(rng.uniform(0.0, 8.0)))
            steps.append(Raise(exc))
            plan.raisers.append((name, node.definition.name))
            raisers_chosen = True
        else:
            steps.append(Compute(rng.uniform(5.0, 30.0)))
        return steps

    specs = []
    for name in names:
        body = behaviour_for(name, root)
        handler_sets = {}
        abortion_handlers = {}
        for definition in plan.actions:
            if name in definition.participants:
                handler_sets[definition.name] = HandlerSet.completing_all(
                    definition.tree, duration=rng.uniform(0.0, 2.0)
                )
                if definition.parent is not None:
                    if rng.random() < signal_probability:
                        parent_def = next(
                            a for a in plan.actions if a.name == definition.parent
                        )
                        signal = rng.choice(
                            sorted(
                                parent_def.tree.members, key=lambda c: c.__name__
                            )
                        )
                        abortion_handlers[definition.name] = (
                            AbortionHandler.signalling(
                                signal, duration=rng.uniform(0.0, 1.5)
                            )
                        )
                    else:
                        abortion_handlers[definition.name] = (
                            AbortionHandler.silent(duration=rng.uniform(0.0, 1.5))
                        )
        specs.append(
            ParticipantSpec(
                name,
                [ActionBlock(root.definition.name, body)],
                handler_sets,
                abortion_handlers,
                start_delay=rng.uniform(0.0, 2.0),
            )
        )

    # A recursive closure holds itself through its own cell, and every
    # closure here shares ``rng``, ``plan`` and ``exceptions``: emptying
    # the two cells lets the world be freed by reference counting.
    del grow, behaviour_for

    if not raisers_chosen:
        # Force one raiser in the root action so every scenario exercises
        # at least one resolution.
        forced = specs[rng.randrange(len(specs))]
        root_excs = exceptions[root.definition.name]
        old_block = forced.behaviour[0]
        forced.behaviour = [
            ActionBlock(
                old_block.action, [*old_block.steps, Raise(rng.choice(root_excs))]
            )
        ]
        plan.raisers.append((forced.name, root.definition.name))

    latency = (
        UniformLatency(0.2, rng.uniform(1.0, 4.0))
        if random_latency
        else ConstantLatency(1.0)
    )
    scenario = Scenario(plan.actions, specs, latency=latency, seed=seed)
    return scenario, plan


def check_invariants(result, plan: FuzzPlan) -> list[str]:
    """The paper's guarantees, checked on a finished run.

    Returns a list of violations (empty = all good).  ``result.crashed``
    names participants whose nodes were killed mid-run: they are exempt from
    the termination and completeness checks (a dead object owes nobody
    anything) but their *recorded* handler executions still count toward
    agreement — a crashed object must not have handled a conflicting
    exception before it died.  A live participant left without a handler
    because it waits for a crashed peer's ACK is reported as
    non-termination, naming whom it waits on, not as partial handling.
    """
    problems: list[str] = []
    dead = set(result.crashed)
    if not result.all_finished():
        unfinished = [
            name for name, runner in result.runners.items()
            if not runner.finished and name not in dead
        ]
        problems.append(f"non-termination: {unfinished} never finished")
    # Per-action, per-attempt handler agreement: within one incarnation of
    # one action, every participant that ran a resolved handler ran the
    # same exception's handler.  (Across backward-recovery attempts the
    # sets may legitimately differ: a participant can be aborted out of
    # one attempt before handling and handle in the next.)
    for definition in plan.actions:
        by_attempt: dict[str, dict[str, str]] = {}
        for name, participant in result.participants.items():
            for execution in participant.handler_log:
                if execution.action != definition.name:
                    continue
                bucket = by_attempt.setdefault(execution.incarnation, {})
                if name in bucket:
                    problems.append(
                        f"{name} handled twice in {definition.name} "
                        f"incarnation {execution.incarnation}"
                    )
                bucket[name] = execution.exception
        for attempt, bucket in by_attempt.items():
            if len(set(bucket.values())) > 1:
                problems.append(
                    f"handler disagreement in {definition.name} attempt "
                    f"{attempt}: {bucket}"
                )
        # In the final incarnation: if anyone handled, every participant
        # must have handled — unless the missing participant was aborted
        # out of the action by an outer resolution (which legitimately
        # "stops any activity ... including execution of any handlers",
        # Section 4.1, possibly mid-handler and after a luckier peer
        # already finished), or never managed to enter at all (belated).
        if by_attempt:
            last = by_attempt[max(by_attempt)]
            status = result.status(definition.name).value
            missing = set(definition.participants) - set(last)
            if missing and status != "aborted":
                excused = {
                    entry.subject
                    for category in (
                        "abort.done", "handler.cancelled", "action.enter_refused"
                    )
                    for entry in result.runtime.trace.by_category(category)
                    if entry.details.get("action") == definition.name
                }
                entered = {
                    entry.subject
                    for entry in result.runtime.trace.by_category("action.enter")
                    if entry.details.get("action") == definition.name
                }
                unexcused = {
                    name
                    for name in missing
                    if name not in excused and name in entered
                    and name not in dead
                }
                if dead:
                    blocked = _blocked_on_dead(result, definition.name, unexcused, dead)
                    problems.extend(
                        f"non-termination: {', '.join(names)} in "
                        f"{definition.name}: {reason}"
                        for reason, names in blocked.items()
                    )
                    unexcused.difference_update(*blocked.values())
                if unexcused:
                    problems.append(
                        f"partial handling in {definition.name} ({status}): "
                        f"{sorted(unexcused)} handled nothing without being "
                        f"aborted; handlers ran in {sorted(last)}"
                    )
    return problems


def _blocked_on_dead(
    result, action: str, names: set[str], dead: set[str]
) -> dict[str, list[str]]:
    """Live participants of ``action`` that wait for a crashed peer's ACK.

    A participant that holds a Commit, or sits in X, with a dead peer in
    ``ack_awaited`` can never start its handler: the Section 4.2 rule
    applied to a crash the base variant does not tolerate (a stall, not a
    disagreement).  Returns reason -> the participants it names.
    """
    blocked: dict[str, list[str]] = {}
    for name in sorted(names):
        ctx = result.participants[name].engine.ctx
        if ctx is None or ctx.action != action:
            continue
        if ctx.commit is None and ctx.state is not PState.EXCEPTIONAL:
            continue
        for kind, awaited in sorted(ctx.ack_awaited.items()):
            peers = sorted(awaited & dead)
            if peers:
                held = (
                    f", holding Commit from {ctx.commit.sender}"
                    if ctx.commit is not None else ""
                )
                reason = (
                    f"state {ctx.state.value}{held}, awaiting ACK({kind}) "
                    f"from crashed {', '.join(peers)}"
                )
                blocked.setdefault(reason, []).append(name)
                break
    return blocked
