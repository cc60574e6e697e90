"""A cell's verdict does not depend on the trace level it ran at.

``run_cell`` runs a paper-family cell at ``TraceLevel.COUNTS``: its oracles
read participant and runner state and the send counters, never a trace
record, so the FULL records would be written for nobody.  This holds only
while no paper oracle reads a record; one that did would see an empty
trace at ``COUNTS``.  So every cell of the smoke matrix is judged twice —
by ``run_cell`` and by the oracles over a ``FULL`` observation — and the
two outcomes must agree field by field.
"""

import pytest

from repro.simkernel.trace import TraceLevel
from repro.workloads import campaigns
from repro.workloads.campaigns import (
    CampaignCell,
    classify_observation,
    default_matrix,
    observe_cell,
    run_cell,
)

SMOKE = default_matrix(smoke=True, seed=0)


@pytest.mark.parametrize("cell", SMOKE, ids=lambda cell: cell.cell_id)
def test_run_cell_judges_as_the_full_trace_does(cell):
    outcome = run_cell(cell)
    obs = observe_cell(cell, trace_level=TraceLevel.FULL)
    classification, violations = classify_observation(cell, obs)
    assert (
        outcome.classification, outcome.violations, outcome.detail,
        outcome.measured, outcome.expected, outcome.sim_duration,
    ) == (
        classification, violations, obs.detail,
        obs.measured, obs.expected, obs.sim_duration,
    )


def test_paper_cells_run_at_counts_and_fuzz_cells_at_full(monkeypatch):
    levels = {}

    def spy(cell, run_until=None, trace_level=TraceLevel.FULL):
        levels[cell.family] = trace_level
        return observe_cell(cell, run_until, trace_level)

    monkeypatch.setattr(campaigns, "observe_cell", spy)
    for family in ("paper", "fuzz"):
        run_cell(next(cell for cell in SMOKE if cell.family == family))
    assert levels == {"paper": TraceLevel.COUNTS, "fuzz": TraceLevel.FULL}


def test_a_fuzz_cell_refuses_counts():
    with pytest.raises(ValueError, match="FULL"):
        observe_cell(CampaignCell("fuzz", "base", "none", 4, seed=1),
                     trace_level=TraceLevel.COUNTS)
