"""The span forest is a view of the trace, and the view is pinned.

``tests/golden/spans/`` was written at ``d35acb6`` — the last commit whose
engines emitted spans themselves, beside their trace records — from the
eight runs in :data:`RUNS`.  Since then ``Runtime.spans`` is derived on
read from the trace (:func:`repro.obs.spans.from_trace`); these tests hold
the view to what the engines used to say: the rendered tree byte for byte,
the JSONL equal up to a renumbering of span ids (``cause_ids`` are message
ids, numbered from 1 in every run as in a fresh ``repro trace`` process, and
compare as they are).  ``ct``, ``mc`` and ``ct_crash`` were re-pinned once,
on purpose, when a ct or mc member's handler record began to carry the
Commit that started it, as cd's always had: only the ``cause_ids`` of their
``state R`` and handler spans moved.

Regenerate on purpose only: ``PYTHONPATH=src python
tests/integration/test_span_view.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.action import NestedPolicy
from repro.core.variants import run_action
from repro.net.message import reset_msg_ids
from repro.objects.naming import canonical_name
from repro.obs import render_span_tree, spans_to_jsonl
from repro.workloads import generator

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "spans"

#: name -> a run returning something with ``.runtime``.  The first six are
#: ``repro trace <name>`` at the CLI's defaults (n=4, p=2, q=0, seed=0).
RUNS = {
    "example1": lambda: generator.example1_scenario().run(),
    "example2": lambda: generator.example2_scenario().run(),
    "general": lambda: run_action("base", 4, 2, 0, seed=0),
    "ct": lambda: run_action("ct", 4, 2, 0, seed=0),
    "mc": lambda: run_action("mc", 4, 2, 0, seed=0),
    "cd": lambda: run_action("cd", 4, 2, 0, seed=0),
    "ct_crash": lambda: run_action(
        "ct", 4, 2, crashes=[(canonical_name(2), 12.0)]
    ),
    "base_wait_for_nested": lambda: generator.general_case(
        4, 1, 2, policy=NestedPolicy.WAIT_FOR_NESTED
    ).run(),
}


def _forest(name: str):
    reset_msg_ids()
    return RUNS[name]().runtime.spans


def _renumbered(jsonl: str) -> list[dict]:
    """Span records with ids replaced by their order of first appearance."""
    records = [json.loads(line) for line in jsonl.splitlines()]
    order = {record["span_id"]: index for index, record in enumerate(records)}
    for record in records:
        record["span_id"] = order[record["span_id"]]
        if record["parent_id"] is not None:
            record["parent_id"] = order[record["parent_id"]]
    return records


@pytest.mark.parametrize("name", sorted(RUNS))
def test_view_reproduces_the_recorded_forest(name):
    spans = _forest(name)
    assert spans.forest_problems() == []
    tree = render_span_tree(spans) + "\n"
    assert tree == (GOLDEN / f"{name}.tree.txt").read_text()
    assert _renumbered(spans_to_jsonl(spans)) == _renumbered(
        (GOLDEN / f"{name}.jsonl").read_text()
    )


def test_golden_directory_holds_exactly_the_pinned_runs():
    stems = {path.name.split(".")[0] for path in GOLDEN.iterdir()}
    assert stems == set(RUNS)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in RUNS:
        spans = _forest(name)
        (GOLDEN / f"{name}.tree.txt").write_text(render_span_tree(spans) + "\n")
        (GOLDEN / f"{name}.jsonl").write_text(spans_to_jsonl(spans))
        print(f"{name}: {len(spans)} spans")
