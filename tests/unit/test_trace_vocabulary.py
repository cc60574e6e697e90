"""The Member variants write base's trace vocabulary, not copies of it.

ct, mc and cd write the records base writes — ``resolution.join``,
``resolution.commit``, ``abort.start`` / ``abort.done`` — plus the one
``resolution.handle``, each with a ``variant`` detail.  So every category
a variant writes is a row of the span view (:data:`SPAN_ROWS`), a
substrate's (messages, multicast, the failure detector, nodes), or one of
ct's own deltas, which base has no record for.  A ``<tag>.commit`` or any
other per-variant copy of a base record fails here.
"""

from __future__ import annotations

import pytest

from repro.core.variants import run_action
from repro.obs.spans import SPAN_ROWS
from repro.simkernel.trace import TraceLevel

SUBSTRATE = ("msg.", "mcast.", "detector.", "node.")
#: ct's rules beyond §4.2: a late raiser answered with the Commit, a Commit
#: extended or merged, a takeover, and crash-restart with its rejoin.
CT_DELTAS = {
    "ct.late_exception", "ct.commit_extend", "ct.handle_upgrade",
    "ct.takeover", "ct.rejoin", "ct.rejoin_req", "ct.rejoin_abort",
    "ct.restart",
}

#: Nested shapes with a crash, each resolved: ct's victim comes back and
#: rejoins, and in the second ct world the nested member takes over from
#: the dead raiser; cd's victim dies after the Commit (earlier, cd stalls).
WORLDS = {
    "ct-restart": ("ct", 5, 2, 1, {"crashes": [("O0004", 10.5)], "restart_at": 30.0}),
    "ct-takeover": ("ct", 2, 1, 1, {"crashes": [("O0000", 10.2)], "nested_signal": True}),
    "mc": ("mc", 5, 2, 1, {"crashes": [("O0004", 10.5)]}),
    "cd": ("cd", 5, 2, 0, {"crashes": [("O0004", 20.0)]}),
}


@pytest.mark.parametrize("world", WORLDS)
def test_a_variant_writes_only_base_rows_substrate_records_and_ct_deltas(world):
    variant, n, p, q, options = WORLDS[world]
    run = run_action(
        variant, n, p, q, trace_level=TraceLevel.FULL, until=200.0, **options
    )
    written = set(run.runtime.trace.counts)
    assert run.all_handled() and "node.crash" in written
    assert "resolution.handle" in written
    assert written & {"resolution.commit", "coordinator.commit"}
    if q:
        assert {"abort.start", "abort.done"} <= written
    stray = {
        category for category in written
        if category not in SPAN_ROWS
        and not category.startswith(SUBSTRATE)
        and category not in CT_DELTAS
    }
    assert not stray, f"{world} writes categories of its own: {sorted(stray)}"
    for entry in run.runtime.trace.entries:
        if entry.category in ("resolution.commit", "resolution.handle",
                              "abort.start", "abort.done"):
            assert entry.details["variant"] == variant, entry
