"""Sim-vs-asyncio conformance: identical protocol outcomes on both kernels.

Every cell here runs the *same* campaign cell (same variant, shape,
seed, same invariant oracles) on the deterministic simkernel and on real
asyncio timers, and asserts the oracle digests — classification, handler
agreement, termination and, fault-free, the exact Section 4.4 counts —
are equal.  A divergence means the protocol's guarantees depend on the
scheduler, which is exactly the bug class this suite exists to catch.

The asyncio side is genuinely nondeterministic (real timer jitter), so
these tests are also the repo's standing race detector; CI additionally
re-runs them under ten distinct seeds (the flaky-guard job).
"""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.rt import ProtocolHarness
from repro.rt.harness import (
    CONFORMANCE_VARIANTS,
    conformance_cells,
    fault_cells,
    oracle_digest,
)
from repro.workloads.campaigns import CampaignCell, classify_observation

#: A faster clock than the interactive default: the suite runs every cell
#: on real timers, so wall time matters; 2 ms per unit still dwarfs timer
#: granularity.
TIME_SCALE = 0.002

FAULT_FREE = conformance_cells(ns=(2, 3, 5))
FAULTY = fault_cells(ns=(3,))


@pytest.fixture(scope="module")
def harness() -> ProtocolHarness:
    return ProtocolHarness(time_scale=TIME_SCALE)


@pytest.mark.parametrize(
    "cell", FAULT_FREE, ids=[cell.cell_id for cell in FAULT_FREE]
)
def test_fault_free_digests_match(harness: ProtocolHarness, cell) -> None:
    """Fault-free cells: byte-identical digests, exact paper counts."""
    result = harness.compare(cell)
    sim, aio = result.runs
    assert sim.digest == aio.digest, (
        f"backend divergence on {cell.cell_id}: "
        f"keys {result.divergent_keys()}\n sim: {sim.digest}\n aio: {aio.digest}"
    )
    assert sim.classification == "OK"
    assert sim.digest["finished"]
    if sim.digest["expected"] is not None:  # cr: measured-only (no formula)
        assert sim.digest["measured"] == sim.digest["expected"]


@pytest.mark.parametrize(
    "cell", FAULTY, ids=[cell.cell_id for cell in FAULTY]
)
def test_fault_cells_terminate_with_agreement(
    harness: ProtocolHarness, cell
) -> None:
    """Drop/crash cells on real timers: oracles hold, stalls only where
    documented (the classification already encodes handler agreement and
    exactly-once — any disagreement is INVARIANT-VIOLATION)."""
    run = harness.run_cell(cell, "asyncio")
    assert run.classification in ("OK", "STALLED-EXPECTED"), (
        f"{cell.cell_id}: {run.classification} {run.digest['violations']}"
    )


def test_matrix_covers_every_variant() -> None:
    variants = {cell.variant for cell in FAULT_FREE}
    assert variants == set(CONFORMANCE_VARIANTS)
    assert {cell.n for cell in FAULT_FREE} == {2, 3, 5}


def test_report_aggregation(harness: ProtocolHarness) -> None:
    """run() aggregates per-cell results and the payload is JSON-able."""
    import json

    report = harness.run(conformance_cells(ns=(2,), variants=("base", "cd")))
    assert report.ok
    payload = report.to_payload()
    assert payload["cells"] == 2
    assert payload["failures"] == []
    json.dumps(payload)  # must not contain unserialisable values


def test_conformance_run_leaves_no_event_loop_open(harness: ProtocolHarness) -> None:
    """Each asyncio kernel's loop is closed when its backend scope exits, so
    collecting the run's garbage raises no "unclosed event loop" warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert harness.run(conformance_cells(ns=(2,), variants=("base",))).ok
        gc.collect()
    assert [
        str(w.message) for w in caught if issubclass(w.category, ResourceWarning)
    ] == []


def test_digest_excludes_counts_for_fault_cells() -> None:
    """Fault cells' retry traffic is timing-dependent: counts stay out of
    the digest so legitimate backend differences cannot fail conformance."""
    harness = ProtocolHarness(backends=("sim",))
    cell = CampaignCell("paper", "base", "drop", 3, 2, 0, seed=0)
    run = harness.run_cell(cell, "sim")
    assert "measured" not in run.digest
    assert "expected" not in run.digest


def test_oracle_digest_is_oracle_derived() -> None:
    """The digest reflects the shared campaign oracles, not a parallel
    implementation: classification comes from classify_observation."""
    from repro.rt.harness import cell_horizon
    from repro.workloads.campaigns import observe_cell

    cell = CampaignCell("paper", "base", "none", 3, 2, 1, seed=0)
    obs = observe_cell(cell, run_until=cell_horizon(cell))
    classification, violations = classify_observation(cell, obs)
    digest = oracle_digest(cell, obs, classification, violations)
    assert digest["classification"] == classification == "OK"
    assert digest["measured"] == digest["expected"]
    assert dict(digest["handled"])  # every participant recorded a handler


def test_unknown_backend_rejected() -> None:
    with pytest.raises(ValueError, match="unknown backends"):
        ProtocolHarness(backends=("sim", "threads"))
