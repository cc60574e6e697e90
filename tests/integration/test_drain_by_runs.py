"""A cell drained by ``Simulator.run()`` is the cell drained by ``step()``.

``run()`` hands each run of queued raw deliveries to the network in one
call (``Network._deliver_run``); ``step()`` pops them one at a time and
delivers each through ``Network._deliver``.  For every variant of the
fault matrix under no fault, each fault of the ARQ transport (loss,
corruption, a partition) and a crashed participant, both drains must give
the same FULL trace, the same tallies and counters and the same
``events_executed``.  ``run()`` delivers the ARQ transport's traffic in
runs too: its receive step is a hook of the one delivery rule, not an
override that needs a call per message.
"""

import sys

import pytest

from repro.net.message import reset_msg_ids
from repro.net.network import Network
from repro.net.reliable import ReliableNetwork
from repro.simkernel.scheduler import SimulationError, Simulator
from repro.workloads.campaigns import default_matrix, observe_cell

ARQ_FAULTS = ("drop", "corrupt", "partition")
FAULTS = ("none", *ARQ_FAULTS, "crash_participant")


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


@pytest.mark.parametrize(
    "cell", [c for c in _first_cells() if c.fault in ARQ_FAULTS], ids=lambda cell: cell.cell_id
)
def test_run_delivers_every_frame_through_the_run_form(cell):
    codes = {Network._deliver.__code__: 0, Network._deliver_run.__code__: 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            codes[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        network = observe_cell(cell).runtime.network
    finally:
        sys.setprofile(None)
    assert isinstance(network, ReliableNetwork) and network.transport_acks
    assert codes[Network._deliver_run.__code__]
    assert not codes[Network._deliver.__code__]
