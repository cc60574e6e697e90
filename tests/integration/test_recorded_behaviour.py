"""Behaviour pinned to what the repo has committed.

The fault and recovery campaigns must reproduce the outcome rows of
``tests/golden/BENCH_faults.json`` and ``tests/golden/BENCH_recovery.json``
row for row (every variant x every fault, exact counts and virtual
durations included), every failure detector of their ``ct`` cells must
first suspect each peer at the instant ``tests/golden/first_suspicions.json``
holds, and the live path must keep serving the outcomes recorded below.
These are the regression net for any change to how an action is built or
run: a schedule that moves shows up here before it shows up anywhere
else.  The campaign benches write their own reports elsewhere and never
touch these goldens.

Regenerate on purpose only: ``PYTHONPATH=src python
tests/integration/test_recorded_behaviour.py``.
"""

import json
from pathlib import Path

import pytest

from repro.service.protocol import ActionRequest, execute_request
from repro.workloads.campaigns import (
    CampaignReport,
    default_matrix,
    observe_cell,
    recovery_matrix,
    run_cell,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

#: golden file -> the campaign whose outcome rows it holds.
CAMPAIGNS = {"BENCH_faults.json": default_matrix, "BENCH_recovery.json": recovery_matrix}
SUSPICIONS = "first_suspicions.json"


def _outcomes(matrix) -> list[dict]:
    return CampaignReport([run_cell(cell) for cell in matrix(seed=0)]).to_payload()["outcomes"]


@pytest.mark.parametrize("artifact,matrix", list(CAMPAIGNS.items()))
def test_campaign_reproduces_committed_artifact(artifact, matrix):
    recorded = json.loads((GOLDEN / artifact).read_text())["outcomes"]
    assert _outcomes(matrix) == recorded


def _first_suspicions() -> dict[str, dict[str, float]]:
    """Per ``ct`` cell of both campaigns: ``"observer>peer"`` -> the instant
    the observer's detector first suspected that peer (an empty map for a
    cell where nobody suspected anyone)."""
    cells = [
        cell for matrix in CAMPAIGNS.values() for cell in matrix(seed=0)
        if cell.variant == "ct"
    ]
    instants = {}
    for cell in cells:
        first = instants[cell.cell_id] = {}
        for entry in observe_cell(cell).runtime.trace.by_category("detector.suspect"):
            first.setdefault(f"{entry.subject}>{entry.details['peer']}", entry.time)
    return instants


def test_detectors_first_suspect_at_the_recorded_instants():
    recorded = json.loads((GOLDEN / SUSPICIONS).read_text())
    assert _first_suspicions() == recorded


#: ``execute_request`` at commit 2756296 (the parent of the run_action
#: refactor): (status, exception, handlers, messages, sim_duration) per
#: variant and (n, p, q); seeds 0 and 7 serve the same outcome.
SERVED = {
    ("base", 3, 1, 0): ("committed", "GeneralExc_0", 3, 6, 14.0),
    ("base", 8, 3, 2): ("committed", "UniversalException", 8, 91, 14.0),
    ("base", 16, 4, 4): ("committed", "UniversalException", 16, 315, 14.0),
    ("ct", 3, 1, 0): ("committed", "CT_0", 3, 6, 80.0),
    ("ct", 8, 3, 2): ("committed", "UniversalException", 8, 77, 80.0),
    ("ct", 16, 4, 4): ("committed", "UniversalException", 16, 255, 80.0),
    ("mc", 3, 1, 0): ("committed", "MC_0", 3, 4, 4.0),
    ("mc", 8, 3, 2): ("committed", "UniversalException", 8, 11, 4.5),
    ("mc", 16, 4, 4): ("committed", "UniversalException", 16, 21, 4.5),
    ("cd", 3, 1, 0): ("committed", "CD_0", 3, 8, 14.0),
    ("cd", 8, 3, 2): ("committed", "UniversalException", 8, 25, 14.0),
    ("cd", 16, 4, 4): ("committed", "UniversalException", 16, 50, 14.0),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("shape", sorted(SERVED), ids=lambda s: "{}-n{}p{}q{}".format(*s))
def test_service_golden_grid(shape, seed):
    variant, n, p, q = shape
    outcome = execute_request(
        ActionRequest(id=1, variant=variant, n=n, p=p, q=q, seed=seed)
    )
    assert (
        outcome.status, outcome.exception, outcome.handlers,
        outcome.messages, outcome.sim_duration,
    ) == SERVED[shape]


if __name__ == "__main__":
    for artifact, matrix in CAMPAIGNS.items():
        outcomes = _outcomes(matrix)
        (GOLDEN / artifact).write_text(json.dumps({"outcomes": outcomes}, indent=2) + "\n")
        print(f"{artifact}: {len(outcomes)} outcome rows")
    suspicions = _first_suspicions()
    (GOLDEN / SUSPICIONS).write_text(json.dumps(suspicions, indent=1) + "\n")
    print(f"{SUSPICIONS}: {len(suspicions)} ct cells")
