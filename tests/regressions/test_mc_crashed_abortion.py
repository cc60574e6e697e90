"""Regression: a crashed mc member does not finish its abortion.

An mc member in a nested action aborts it on flushing and, once the
abortion chain has run, multicasts its NestedCompleted and checks whether
the flush round is complete.  That completion was a timer with no halt
check: O0003 (nested, its abortion taking 5.0) crashed at t=12.5, yet at
t=16.0 it recorded ``abort.done``, multicast a NestedCompleted from a
dead node and ran the completion check over a dead member's state.  A
dead object takes no steps (ct's abortion timer has always checked).
"""

from repro.core.variants import run_action


def test_a_crashed_member_finishes_no_abortion():
    run = run_action(
        "mc", 4, 2, 2, raise_at=10.0, crashes=[("O0003", 12.5)],
        abort_duration=5.0, until=400,
    )
    trace = run.runtime.trace
    done = [(e.time, e.subject) for e in trace.by_category("abort.done")]
    assert done == [(16.0, "O0002")]
    sent = [
        e for e in trace.by_category("msg.send")
        if e.subject == "O0003" and e.details["kind"] == "MC_NESTED_COMPLETED"
    ]
    assert not sent
    # Without a failure detector the survivors still wait for O0003's
    # NestedCompleted: the documented mc stall, not a verdict.
    assert run.handled() == {}
