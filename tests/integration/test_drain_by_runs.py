"""A cell drained by ``Simulator.run()`` is the cell drained by ``step()``.

``run()`` hands each run of queued raw deliveries to the network in one
call (``Network._deliver_run``); ``step()`` pops them one at a time and
delivers each through ``Network._deliver``.  For every variant of the
fault matrix under no fault, message loss over the ARQ transport and a
crashed participant, both drains must give the same FULL trace, the same
tallies and counters and the same ``events_executed``.
"""

import pytest

from repro.net.message import reset_msg_ids
from repro.simkernel.scheduler import SimulationError, Simulator
from repro.workloads.campaigns import default_matrix, observe_cell

FAULTS = ("none", "drop", "crash_participant")


def _first_cells():
    cells = {}
    for cell in default_matrix(seed=0):
        if cell.family == "paper" and cell.fault in FAULTS:
            cells.setdefault((cell.variant, cell.fault), cell)
    return list(cells.values())


def run_by_step(sim, until=None, max_events=None):
    """``Simulator.run`` restated as ``step()`` in a loop."""
    executed = 0
    while True:
        next_time = sim._queue.peek_time()
        if next_time is None or (until is not None and next_time > until):
            break
        if max_events is not None and executed >= max_events:
            raise SimulationError(f"event budget exhausted after {executed} events")
        sim.step()
        executed += 1
    if until is not None and until > sim.now:
        sim.advance_to(until)


def observed(cell):
    reset_msg_ids()
    obs = observe_cell(cell)
    runtime = obs.runtime
    network = runtime.network
    return {
        "finished": obs.finished,
        "handled": obs.handled,
        "trace": runtime.trace.dump(),
        "tallies": dict(runtime.trace.counts),
        "events_executed": runtime.sim.events_executed,
        "now": runtime.sim.now,
        "sent": dict(network.sent_by_kind),
        "delivered": dict(network.delivered_by_kind),
        "retransmissions": getattr(network, "retransmissions", 0),
    }


def test_the_cells_cover_every_matrix_variant_and_fault():
    variants = {cell.variant for cell in default_matrix(seed=0) if cell.family == "paper"}
    assert {(c.variant, c.fault) for c in _first_cells()} == {
        (variant, fault) for variant in variants for fault in FAULTS
    }


@pytest.mark.parametrize("cell", _first_cells(), ids=lambda cell: cell.cell_id)
def test_run_and_step_drain_a_cell_alike(cell, monkeypatch):
    by_runs = observed(cell)
    assert by_runs["events_executed"] and by_runs["trace"]
    monkeypatch.setattr(Simulator, "run", run_by_step)
    by_steps = observed(cell)
    assert by_steps == by_runs
