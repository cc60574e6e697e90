"""Regression: a ct handler upgrade is the verdict a member holds.

Under false suspicion (heartbeat timeout 2.0 against links of up to 3.0)
O0000 commits ``CT_0`` over its own raise alone, O0002 takes over and
commits the same, and O0001, holding both raises, extends the commit to
``UniversalException``.  O0000 and O0002 start ``CT_0``'s handler first
and are then upgraded by ``ct.handle_upgrade`` to the join of both
verdicts.  A view that reads the first handler each member started calls
this run a disagreement; the members themselves all hold
``UniversalException``, and none activated a handler twice.
"""

from repro.core.variants import run_action
from repro.net.latency import UniformLatency


def test_an_upgraded_member_counts_with_its_final_verdict():
    run = run_action(
        "ct", 3, 2, 0, seed=1, latency=UniformLatency(0.5, 3.0),
        hb_interval=1.0, hb_timeout=2.0,
    )
    assert run.runtime.trace.by_category("ct.handle_upgrade")
    assert run.handled() == {
        "O0000": "UniversalException",
        "O0001": "UniversalException",
        "O0002": "UniversalException",
    }
    assert run.double_handled() == []
