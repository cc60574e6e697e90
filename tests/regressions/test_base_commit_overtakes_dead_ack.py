"""Regression: a Commit overtaking a raiser's ACK from a crashed peer is a stall.

Drawn by the fault matrix's fuzz family on ``fuzz:base:crash:n5p0q0:s1012220034``:
O04 crashes at t=15.  O00 and O01 abort the nested A2, signal, and broadcast
``NestedCompleted`` at t≈14.8/15.2; the copies to O04 are lost with it.
Resolver O03 already holds O04's ACK for its own Exception, so it reaches R
and commits; suspended O02 handles.  O00 and O01 receive the Commit in state
X with O04's ACK still awaited, and an X participant starts its handler only
once every ACK is in — the Section 4.2 rule meeting a crash the base variant
does not claim to tolerate.  Handler agreement holds; liveness does not.

The oracle used to call that "partial handling" (``INVARIANT-VIOLATION``).
It is the documented base-variant crash stall (``STALLED-EXPECTED``), and the
outcome now says who waits on whom.  The crash-tolerant variant's suspicion
path exists to remove exactly this wait.
"""

import pytest

from repro.workloads.campaigns import STALLED_EXPECTED, parse_cell_id, run_cell

#: cell id -> the stall reason its outcome must name.
CELLS = {
    "fuzz:base:crash:n5p0q0:s1012220034": (
        "O00, O01 in A1: state X, holding Commit from O03, "
        "awaiting ACK(NESTED_COMPLETED) from crashed O04"
    ),
    "fuzz:base:crash:n5p0q0:s678287890": (
        "O01 in A1: state X, holding Commit from O03, "
        "awaiting ACK(NESTED_COMPLETED) from crashed O04"
    ),
}


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_wait_on_crashed_peer_is_an_expected_stall(cell_id: str) -> None:
    outcome = run_cell(parse_cell_id(cell_id))
    assert outcome.violations == ()
    assert outcome.classification == STALLED_EXPECTED
    assert CELLS[cell_id] in outcome.detail


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_the_same_world_without_the_crash_finishes(cell_id: str) -> None:
    outcome = run_cell(parse_cell_id(cell_id.replace(":crash:", ":none:")))
    assert outcome.classification == "OK", outcome.violations
