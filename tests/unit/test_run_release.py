"""A dropped run frees itself: no reference cycle outlives a finished action.

Dropping an :class:`~repro.core.variants.ActionRun` releases its runtime
(:meth:`~repro.objects.runtime.Runtime.release`), which cuts every edge
that closes a cycle through the run, so reference counting alone frees it.
Each leak test pauses the cyclic collector, collects once, runs and drops a
run, and then asks the collector what only it could free.  The one thing
allowed to remain is what a fuzz world declares at run time: exception
classes, which are cyclic by nature (a class is in its own ``__mro__``).
The read tests pin what stays readable on a released runtime, and that it
refuses to run again.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.variants import SERVABLE, VARIANTS, run_action
from repro.exceptions import declarations
from repro.net.failures import FailurePlan
from repro.service.protocol import (
    ActionRequest,
    execute_request,
    execute_request_traced,
)
from repro.simkernel.trace import TraceLevel
from repro.workloads.campaigns import default_matrix, run_cell


def cyclic_garbage(body) -> list:
    """Run ``body()`` twice and return what only the cycle collector frees
    after the second call: the first warms imports and caches."""
    body()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        body()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def kinds(garbage: list) -> Counter:
    return Counter(type(obj).__name__ for obj in garbage)


def shape(tag: str) -> tuple[int, int, int]:
    return (4, 2, 1 if VARIANTS[tag].nests else 0)


def first_cells(family: str) -> list:
    """The first cell of ``family`` for each fault kind of the matrix."""
    cells = {}
    for cell in default_matrix(seed=0):
        if cell.family == family:
            cells.setdefault(cell.fault, cell)
    return list(cells.values())


# -- leaks ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "level", [TraceLevel.COUNTS, TraceLevel.FULL], ids=lambda level: level.name
)
@pytest.mark.parametrize("tag", list(VARIANTS))
def test_a_dropped_run_of_every_variant_leaves_no_cycle(tag, level):
    garbage = cyclic_garbage(lambda: run_action(tag, *shape(tag), trace_level=level))
    assert not garbage, kinds(garbage)


@pytest.mark.parametrize("tag", list(VARIANTS))
def test_a_run_cut_short_mid_flight_leaves_no_cycle(tag):
    """Stopped at ``until`` with steps, handlers and unacknowledged frames
    still queued: each queued timer points back at what armed it."""
    garbage = cyclic_garbage(lambda: run_action(
        tag, *shape(tag), until=3.0, reliable=True,
        failure_plan=FailurePlan(drop_probability=0.3),
    ))
    assert not garbage, kinds(garbage)


PAPER_CELLS = first_cells("paper")


def test_the_paper_cells_include_drop_over_the_arq_transport():
    assert "drop" in {cell.fault for cell in PAPER_CELLS}


@pytest.mark.parametrize("cell", PAPER_CELLS, ids=lambda cell: cell.cell_id)
def test_a_paper_cell_of_every_fault_kind_leaves_no_cycle(cell):
    garbage = cyclic_garbage(lambda: run_cell(cell))
    assert not garbage, kinds(garbage)


@pytest.mark.parametrize("execute", [execute_request, execute_request_traced])
@pytest.mark.parametrize("tag", SERVABLE)
def test_a_served_request_leaves_no_cycle(tag, execute):
    request = ActionRequest(id=1, variant=tag, n=4, p=2, q=1)
    garbage = cyclic_garbage(lambda: execute(request))
    assert not garbage, kinds(garbage)


@pytest.mark.parametrize(
    "cell", first_cells("fuzz"), ids=lambda cell: cell.cell_id
)
def test_a_fuzz_cell_leaves_only_the_classes_its_world_replaced(cell):
    """A world declares its exception classes on
    :mod:`repro.exceptions.declarations`, newest of a name wins: the
    measured run's world rebinds the warm-up world's names, and those
    classes, with their ``__mro__`` and ``__bases__``, are all that is left.
    Only ids are kept of them, so that nothing here holds them alive."""
    parts = {}

    def body():
        parts.clear()
        parts.update(
            (name, (id(value), id(value.__mro__), id(value.__bases__)))
            for name, value in vars(declarations).items()
            if getattr(value, "_dynamic", False)
        )
        run_cell(cell)

    garbage = cyclic_garbage(body)
    replaced = [
        ids for name, ids in parts.items()
        if id(getattr(declarations, name)) != ids[0]
    ]
    assert replaced
    assert {id(obj) for obj in garbage} == set().union(*replaced), kinds(garbage)


# -- what a released runtime still answers ----------------------------------------


def queries(run) -> dict:
    """Every ActionRun query that applies to ``run``'s variant, and the
    participants' verdict fields."""
    answers = {
        "variant": run.variant,
        "duration": run.duration,
        "survivors": [p.name for p in run.survivors()],
        "handled": run.handled(),
        "handlers_started": run.handlers_started(),
        "double_handled": run.double_handled(),
        "all_handled": run.all_handled(),
        "all_finished": run.all_finished(),
        "handled_exceptions": run.handled_exceptions(),
        "messages_by_kind": run.messages_by_kind(),
        "messages_for_action": run.messages_for_action("A1"),
        "commit_entries": run.commit_entries("A1"),
        "unicasts": run.unicasts(),
        "messages": run.messages(),
        "resolution_message_total": run.resolution_message_total(),
        "restarted": run.restarted,
        "stores": run.stores,
    }
    if run.manager is not None:
        answers["status"] = run.status("A1")
        answers["handled_exception"] = run.handled_exception("A1")
    if run.spec.detects_failures:
        answers["final_view"] = run.final_view().members
    for name, participant in run.participants.items():
        answers[name] = (
            participant.handled_in("A1"),
            getattr(participant, "handled", None),
            getattr(participant, "activations", None),
            list(getattr(participant, "handler_log", ())),
        )
    return answers


def readings(runtime) -> dict:
    """What the repo reads from a finished runtime."""
    network = runtime.network
    return {
        "entries": list(runtime.trace.entries),
        "sends": runtime.trace.by_category("msg.send"),
        "spans": runtime.spans.to_records(),
        "sent_by_kind": dict(network.sent_by_kind),
        "delivered_by_kind": dict(network.delivered_by_kind),
        "total_sent": network.total_sent(),
        "arq": (
            network.retransmissions, network.transport_acks,
            network.duplicates_dropped, network.dead_letters,
        ),
        "now": runtime.sim.now,
        "events_executed": runtime.sim.events_executed,
        "metrics": runtime.metrics_snapshot(),
        "objects": list(runtime.objects),
    }


@pytest.mark.parametrize("tag", list(VARIANTS))
def test_a_released_runtime_still_answers_every_read(tag):
    run = run_action(
        tag, *shape(tag), reliable=True,
        failure_plan=FailurePlan(drop_probability=0.2),
    )
    before = (queries(run), readings(run.runtime))
    assert before[1]["arq"][0] > 0, "the lossy run retransmitted nothing"
    run.runtime.release()
    run.runtime.release()  # idempotent
    assert (queries(run), readings(run.runtime)) == before


def test_a_dropped_run_releases_its_runtime_and_it_refuses_to_run():
    runtime = run_action("base", *shape("base")).runtime
    with pytest.raises(RuntimeError, match="released"):
        runtime.run()
