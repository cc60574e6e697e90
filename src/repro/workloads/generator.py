"""Generators for the paper's analysis cases and worked examples.

Each function builds a :class:`~repro.workloads.scenarios.Scenario` whose
measured resolution-message counts correspond to a specific claim of the
paper:

* :func:`general_case` — Section 4.4's ``(N-1)(2P + 3Q + 1)`` formula,
  with :func:`single_exception_case`, :func:`all_nested_case` and
  :func:`all_raise_case` as the three named special cases;
* :func:`example1_scenario` — Section 4.3 Example 1 (three objects, two
  concurrent exceptions);
* :func:`example2_scenario` — Section 4.3 Example 2 / Figure 4 (nested
  actions, a belated participant, an abortion-handler signal);
* :func:`figure3_scenario` — the Section 3.3 / Figure 3 situation used to
  check abortion ordering and belated-participant problems;
* :func:`no_exception_case` — normal completion, for the zero-overhead
  claim.
"""

from __future__ import annotations

from repro.analysis.formulas import general_messages
from repro.core.abortion import AbortionHandler
from repro.core.action import CAActionDef, NestedPolicy
from repro.core.variants import flat_tree
from repro.exceptions.declarations import (
    UniversalException,
    declare_exception,
)
from repro.exceptions.handlers import HandlerSet
from repro.exceptions.tree import ResolutionTree
from repro.net.latency import LatencyModel
from repro.objects.naming import canonical_name
from repro.simkernel.trace import TraceLevel
from repro.workloads.behaviour import ActionBlock, Compute, Raise
from repro.workloads.scenarios import DEFAULT_MAX_EVENTS, ParticipantSpec, Scenario

#: Default duration of "real work" steps; long enough that exceptions
#: always interrupt mid-work, short enough to keep runs fast.
WORK = 50.0
#: Default instant at which raisers raise (concurrently).
RAISE_AT = 10.0
#: :func:`general_case` budgets this many events per modelled message.
BUDGET_FACTOR = 4
#: Every nested action of :func:`general_case`: the root-only tree and its
#: complete handler set (both immutable, so one of each serves every run).
_NESTED_TREE = ResolutionTree(UniversalException)
_NESTED_HANDLERS = HandlerSet.completing_all(_NESTED_TREE)


def general_case(
    n: int,
    p: int,
    q: int,
    latency: LatencyModel | None = None,
    seed: int = 0,
    raise_at: float = RAISE_AT,
    policy: NestedPolicy = NestedPolicy.ABORT_NESTED,
    abort_duration: float = 0.0,
    nested_work: float = WORK,
    resolver_group_size: int = 1,
    trace_level: TraceLevel = TraceLevel.FULL,
    failure_plan=None,
    reliable: bool = False,
    ack_timeout: float = 5.0,
    max_retries: int = 60,
    crashes=(),
) -> Scenario:
    """The Section 4.4 workload: N participants of one action, of which P
    raise concurrently and Q sit inside nested actions.

    Expected resolution messages: ``(N - 1) * (2P + 3Q + 1)`` when P >= 1.

    Raisers and nested objects are disjoint (a raiser raises in the
    top-level action, which requires it not to be inside a nested one);
    hence ``p + q <= n`` and ``p >= 1``.

    ``failure_plan``/``reliable``/``crashes`` forward to
    :class:`~repro.workloads.scenarios.Scenario` so fault campaigns can run
    this exact workload over a faulty channel.
    """
    if n < 1:
        raise ValueError(f"need at least one participant, got n={n}")
    if not 0 <= p <= n:
        raise ValueError(f"bad raiser count p={p} for n={n}")
    if not 0 <= q <= n - p:
        raise ValueError(f"bad nested count q={q} for n={n}, p={p}")

    names = [canonical_name(i) for i in range(n)]
    tree, leaves, top_handlers = flat_tree(max(p, 1), "GeneralExc")
    top = CAActionDef(
        "A1",
        tuple(names),
        tree,
        policy=policy,
        resolver_group_size=resolver_group_size,
    )
    actions = [top]
    specs = []
    # All participants share the same (immutable) complete handler set for
    # A1 (made once per tree shape by ``flat_tree``), every nested action
    # the root-only tree/handler set above, and every nested participant
    # the same silent abortion handler: the former per-participant
    # construction was O(N·P) Handler allocations and dominated scenario
    # build time at large N.
    silent_abort = AbortionHandler.silent(abort_duration)
    for i, name in enumerate(names):
        handler_sets = {"A1": top_handlers}
        abortion_handlers = {}
        if i < p:
            behaviour = [ActionBlock("A1", [Compute(raise_at), Raise(leaves[i]),])]
        elif i < p + q:
            nested_name = f"A1.N{i}"
            actions.append(
                CAActionDef(nested_name, (name,), _NESTED_TREE, parent="A1")
            )
            handler_sets[nested_name] = _NESTED_HANDLERS
            abortion_handlers[nested_name] = silent_abort
            behaviour = [
                ActionBlock(
                    "A1", [ActionBlock(nested_name, [Compute(nested_work)])]
                )
            ]
        else:
            behaviour = [ActionBlock("A1", [Compute(WORK)])]
        specs.append(
            ParticipantSpec(
                name=name,
                behaviour=behaviour,
                handler_sets=handler_sets,
                abortion_handlers=abortion_handlers,
            )
        )
    scenario = Scenario(
        actions, specs, latency=latency, seed=seed, trace_level=trace_level,
        failure_plan=failure_plan, reliable=reliable, ack_timeout=ack_timeout,
        max_retries=max_retries, crashes=crashes,
    )
    # A healthy fault-free run executes about one event per resolution
    # message plus one per exit DONE (N(N-1) of them); budgeting a fixed
    # multiple of that keeps the livelock guard from firing on a large but
    # finite action (N=512, P=256, Q=128 needs 722,559 events).
    scenario.max_events = max(
        DEFAULT_MAX_EVENTS,
        BUDGET_FACTOR * (expected_general_messages(n, p, q) + n * (n - 1)),
    )
    return scenario


def single_exception_case(n: int, **kwargs) -> Scenario:
    """Section 4.4 case 1: one exception, no nested actions → 3(N-1)."""
    return general_case(n, p=1, q=0, **kwargs)


def all_nested_case(n: int, **kwargs) -> Scenario:
    """Section 4.4 case 2: one raiser, everyone else nested → 3N(N-1)."""
    return general_case(n, p=1, q=n - 1, **kwargs)


def all_raise_case(n: int, **kwargs) -> Scenario:
    """Section 4.4 case 3: everyone raises at once → (N-1)(2N+1)."""
    return general_case(n, p=n, q=0, **kwargs)


def no_exception_case(n: int, q: int = 0, **kwargs) -> Scenario:
    """Normal completion: the algorithm must add zero resolution traffic."""
    return general_case(n, p=0, q=q, **kwargs)


# -- Section 4.3 Example 1 ------------------------------------------------------

class E1(UniversalException):
    """Exception raised by O1 in the worked examples."""


class E2(UniversalException):
    """Exception raised by O2 in the worked examples."""


class E3(UniversalException):
    """Exception signalled by O2's abortion handler in Example 2."""


def example1_scenario(
    latency: LatencyModel | None = None, seed: int = 0
) -> Scenario:
    """Three objects in action A1; E1 and E2 raised concurrently in O1, O2.

    The paper's trace: both raisers broadcast, everyone ACKs, O2 (the
    bigger name among raisers) resolves and commits; O3 only ACKs and
    handles.
    """
    tree = ResolutionTree(
        UniversalException, {E1: UniversalException, E2: UniversalException}
    )
    action = CAActionDef("A1", ("O1", "O2", "O3"), tree)
    handler_sets = lambda: {"A1": HandlerSet.completing_all(tree)}  # noqa: E731
    specs = [
        ParticipantSpec(
            "O1",
            [ActionBlock("A1", [Compute(RAISE_AT), Raise(E1)])],
            handler_sets(),
        ),
        ParticipantSpec(
            "O2",
            [ActionBlock("A1", [Compute(RAISE_AT), Raise(E2)])],
            handler_sets(),
        ),
        ParticipantSpec(
            "O3", [ActionBlock("A1", [Compute(WORK)])], handler_sets()
        ),
    ]
    return Scenario([action], specs, latency=latency, seed=seed)


# -- Section 4.3 Example 2 / Figure 4 -------------------------------------------

def example2_scenario(
    latency: LatencyModel | None = None,
    seed: int = 0,
    o3_entry_delay: float = 40.0,
    abort_duration: float = 1.0,
) -> Scenario:
    """Four objects in nested actions A1 ⊃ A2 ⊃ A3 (Figure 4).

    * O2 raises E2 within A3 at t=5; its Exception to the belated O3 can
      never be processed (O3 has not entered A3).
    * O1 raises E1 within A1 at t=10; O2/O3/O4 send HaveNested, abort
      their chains; O2's A2 abortion handler signals E3.
    * O2 resolves {E1, E3} (name(O2) > name(O1)) and commits.
    """
    tree_a1 = ResolutionTree(
        UniversalException,
        {E1: UniversalException, E3: UniversalException},
    )
    tree_a2 = ResolutionTree(UniversalException)
    tree_a3 = ResolutionTree(
        UniversalException, {E2: UniversalException}
    )
    actions = [
        CAActionDef("A1", ("O1", "O2", "O3", "O4"), tree_a1),
        CAActionDef("A2", ("O2", "O3", "O4"), tree_a2, parent="A1"),
        CAActionDef("A3", ("O2", "O3"), tree_a3, parent="A2"),
    ]

    def sets_for(*action_names: str) -> dict[str, HandlerSet]:
        trees = {"A1": tree_a1, "A2": tree_a2, "A3": tree_a3}
        return {
            name: HandlerSet.completing_all(trees[name]) for name in action_names
        }

    specs = [
        ParticipantSpec(
            "O1",
            [ActionBlock("A1", [Compute(RAISE_AT), Raise(E1)])],
            sets_for("A1"),
        ),
        ParticipantSpec(
            "O2",
            [
                ActionBlock(
                    "A1",
                    [
                        ActionBlock(
                            "A2",
                            [
                                ActionBlock(
                                    "A3", [Compute(5.0), Raise(E2)]
                                )
                            ],
                        )
                    ],
                )
            ],
            sets_for("A1", "A2", "A3"),
            abortion_handlers={
                "A3": AbortionHandler.silent(abort_duration),
                "A2": AbortionHandler.signalling(E3, abort_duration),
            },
        ),
        ParticipantSpec(
            "O3",
            [
                ActionBlock(
                    "A1",
                    [
                        ActionBlock(
                            "A2",
                            [
                                Compute(o3_entry_delay),  # belated for A3
                                ActionBlock("A3", [Compute(WORK)]),
                            ],
                        )
                    ],
                )
            ],
            sets_for("A1", "A2", "A3"),
            abortion_handlers={"A2": AbortionHandler.silent(abort_duration)},
        ),
        ParticipantSpec(
            "O4",
            [ActionBlock("A1", [ActionBlock("A2", [Compute(WORK)])])],
            sets_for("A1", "A2"),
            abortion_handlers={"A2": AbortionHandler.silent(abort_duration)},
        ),
    ]
    return Scenario(actions, specs, latency=latency, seed=seed)


# -- Section 3.3 / Figure 3 -----------------------------------------------------

def figure3_scenario(
    latency: LatencyModel | None = None,
    seed: int = 0,
    abort_duration: float = 2.0,
    o1_raise_at: float = RAISE_AT,
) -> Scenario:
    """Four objects O0..O3 in A1 ⊃ A2 ⊃ A3 (Figure 3).

    O1 is declared in A2 and A3 but never manages to enter them (belated);
    it raises within A1.  O2 and O3 are deep inside A3 and must abort A3
    before A2 without waiting for O1.
    """
    exc = declare_exception("Fig3Exc")
    tree_a1 = ResolutionTree(UniversalException, {exc: UniversalException})
    tree_inner = ResolutionTree(UniversalException)
    actions = [
        CAActionDef("A1", ("O0", "O1", "O2", "O3"), tree_a1),
        CAActionDef("A2", ("O1", "O2", "O3"), tree_inner, parent="A1"),
        CAActionDef("A3", ("O1", "O2", "O3"), tree_inner, parent="A2"),
    ]

    def sets_for(*names: str) -> dict[str, HandlerSet]:
        trees = {"A1": tree_a1, "A2": tree_inner, "A3": tree_inner}
        return {name: HandlerSet.completing_all(trees[name]) for name in names}

    deep = [
        ActionBlock(
            "A1",
            [ActionBlock("A2", [ActionBlock("A3", [Compute(WORK)])])],
        )
    ]
    specs = [
        ParticipantSpec(
            "O0", [ActionBlock("A1", [Compute(WORK)])], sets_for("A1")
        ),
        ParticipantSpec(
            "O1",
            # Belated: still computing inside A1 when it detects the error,
            # so it never enters A2/A3.
            [ActionBlock("A1", [Compute(o1_raise_at), Raise(exc)])],
            sets_for("A1", "A2", "A3"),
        ),
        ParticipantSpec(
            "O2",
            deep,
            sets_for("A1", "A2", "A3"),
            abortion_handlers={
                "A2": AbortionHandler.silent(abort_duration),
                "A3": AbortionHandler.silent(abort_duration),
            },
        ),
        ParticipantSpec(
            "O3",
            deep,
            sets_for("A1", "A2", "A3"),
            abortion_handlers={
                "A2": AbortionHandler.silent(abort_duration),
                "A3": AbortionHandler.silent(abort_duration),
            },
        ),
    ]
    return Scenario(actions, specs, latency=latency, seed=seed)


#: The paper's Section 4.4 formula ``(N-1)(2P + 3Q + 1)``.
expected_general_messages = general_messages
