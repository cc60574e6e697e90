#!/usr/bin/env python3
"""Backward error recovery: a conversation as a CA action with alternates.

The paper's Section 2.2 recalls the conversation scheme the CA-action
work grew out of: cooperating processes enter asynchronously, synchronize
at an acceptance-test line and — if the test fails — all roll back
together and retry with alternate algorithms.  Figure 2(b) builds exactly
this into the CA action: the acceptance test runs at the synchronized exit
line, a failed test implicitly aborts the action's transaction, and the
next attempt runs each block's alternate.

Scenario: two planners (route and load) compute a joint delivery plan over
a shared manifest.  The primary algorithms are fast but cut corners; the
acceptance test catches the inconsistency, the transaction rolls back
every write (the manifest and each planner's own state, all atomic
objects), and the conservative alternates produce a plan that passes.  A
recovery block — the same action with one participant — is shown for
contrast.

Run:  python examples/conversation_rollback.py
"""

from repro import (
    ActionBlock,
    ActionStatus,
    AtomicObject,
    AtomicWrite,
    CAActionDef,
    Compute,
    HandlerSet,
    ParticipantSpec,
    ResolutionTree,
    Scenario,
    UniversalException,
)

TREE = ResolutionTree(UniversalException)


def participant(name, block, start_delay=0.0):
    handlers = {block.action: HandlerSet.completing_all(TREE)}
    return ParticipantSpec(name, [block], handlers, start_delay=start_delay)


def run_conversation() -> None:
    print("=== conversation: joint backward recovery ===")
    manifest = AtomicObject("manifest", {"crates": 0, "route_len": 0})
    route = AtomicObject("route", {"stops": (), "eta": 0})
    test_line = []

    def acceptance() -> bool:
        # The north-bridge route only tolerates light loads, and the load
        # planner must have packed something.
        verdicts = {
            "bridge-load-limit": manifest.peek("crates") <= 10,
            "crates-packed": manifest.peek("crates") > 0,
        }
        test_line.append(verdicts)
        return all(verdicts.values())

    action = CAActionDef(
        "delivery-plan", ("route-planner", "load-planner"), TREE,
        transactional=True, acceptance=acceptance, max_attempts=2,
    )
    route_planner = ActionBlock(
        "delivery-plan",
        steps=[
            Compute(3.0),
            AtomicWrite(route, "stops", ("depot", "north-bridge", "plant")),
            AtomicWrite(route, "eta", 45),
            AtomicWrite(manifest, "route_len", 2),
        ],
        alternates=[[
            Compute(6.0),
            AtomicWrite(route, "stops", ("depot", "ring-road", "east-gate", "plant")),
            AtomicWrite(route, "eta", 70),
            AtomicWrite(manifest, "route_len", 3),
        ]],
    )
    load_planner = ActionBlock(
        "delivery-plan",
        # The fast loader overpacks: 14 crates exceed the bridge limit the
        # route planner assumed.
        steps=[Compute(4.0), AtomicWrite(manifest, "crates", 14)],
        alternates=[[Compute(5.0), AtomicWrite(manifest, "crates", 9)]],
    )
    result = Scenario(
        [action],
        [
            participant("route-planner", route_planner),
            # Enters the conversation asynchronously.
            participant("load-planner", load_planner, start_delay=2.0),
        ],
        atomic_objects=[manifest, route],
    ).run()

    accepted = result.status("delivery-plan") is ActionStatus.COMPLETED
    attempt = result.manager.attempt_of("delivery-plan")
    # Both planners have left the action once the run is over.
    print(f"  accepted: {accepted} (attempt {attempt}, t={result.duration})")
    print(f"  final route: {list(route.peek('stops'))} (ETA {route.peek('eta')} min)")
    print(f"  final load:  {manifest.peek('crates')} crates")
    print(f"  shared manifest: {manifest.snapshot()}")
    print("  test-line history:")
    for number, verdicts in enumerate(test_line, start=1):
        for name, passed in verdicts.items():
            print(f"    attempt {number}: {name:<18} {'pass' if passed else 'FAIL'}")
    assert accepted and attempt == 2
    assert manifest.snapshot() == {"crates": 9, "route_len": 3}


def run_recovery_block() -> None:
    print("\n=== recovery block: the one-participant case ===")
    estimate = AtomicObject("estimate", {"estimate": 0})
    action = CAActionDef(
        "estimate", ("estimator",), TREE, transactional=True,
        acceptance=lambda: estimate.peek("estimate") >= 0, max_attempts=2,
    )
    block = ActionBlock(
        "estimate",
        steps=[AtomicWrite(estimate, "estimate", -3)],  # buggy fast path
        alternates=[[AtomicWrite(estimate, "estimate", 12)]],
    )
    result = Scenario(
        [action], [participant("estimator", block)], atomic_objects=[estimate]
    ).run()
    attempt = result.manager.attempt_of("estimate")
    print(f"  estimate={estimate.peek('estimate')} "
          f"({result.status('estimate').value} at attempt {attempt})")
    assert result.status("estimate") is ActionStatus.COMPLETED and attempt == 2


def main() -> None:
    run_conversation()
    run_recovery_block()


if __name__ == "__main__":
    main()
