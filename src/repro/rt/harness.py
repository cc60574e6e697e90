"""Sim-vs-real conformance kit: the backend gap as a correctness oracle.

A protocol whose outcome depends on which kernel ran it is broken — the
algorithm's guarantees (agreement, exactly-once, the Section 4.4 counts)
are *schedule-free* claims.  :class:`ProtocolHarness` turns that into a
test: execute the **same** campaign cell (same variant, shape, fault,
seed — :class:`~repro.workloads.campaigns.CampaignCell`, same observers,
same invariant oracles) on the deterministic simkernel and on the
wall-clock asyncio backend, reduce each run to an **oracle digest**, and
check the digests are equal.

The digest keeps exactly the protocol-level facts the paper makes claims
about and drops everything timing-dependent:

* oracle classification (``OK`` / ``STALLED-*`` / ``INVARIANT-VIOLATION``)
  and the violation list;
* who started which resolved handler (handler agreement, completeness);
* termination;
* for fault-free cells, the exact Section 4.4 message/operation count.

Fault cells keep their classification and agreement in the digest but not
the raw counts — under real timers the injector's RNG stream is consumed
in wall-clock arrival order, so drop patterns (and hence retry traffic)
legitimately differ between backends.

On divergence, :func:`export_conformance_traces` re-runs the cell on both
backends at FULL trace and dumps each side's causal span forest (Chrome
trace-event JSON + plain tree) for diffing — the same artifacts the fault
campaigns and the schedule explorer produce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.core.variants import SERVABLE, VARIANTS
from repro.rt.backend import BACKENDS, backend as backend_scope
from repro.rt.kernel import DEFAULT_TIME_SCALE
from repro.workloads.campaigns import (
    OK,
    STALLED_EXPECTED,
    CampaignCell,
    classify_observation,
    observe_cell,
)

#: Default horizons (virtual time) per cell.  The crash-tolerant variant
#: heartbeats forever, so its runs never quiesce and always pay the full
#: horizon — on the asyncio backend that is real wall time, hence the
#: tighter bounds: the registry's ``horizon`` fault-free (ct resolves by
#: ~t=30), and for crash cells the detector timeout plus a re-resolution
#: round.  Every other variant quiesces on its own; 400 matches the fault
#: campaigns' RUN_UNTIL.
CT_HORIZON_FAULT = 150.0
DEFAULT_HORIZON = 400.0


def cell_horizon(cell: CampaignCell) -> float:
    horizon = VARIANTS[cell.variant].horizon
    if horizon is None:
        return DEFAULT_HORIZON
    return horizon if cell.fault == "none" else CT_HORIZON_FAULT


def oracle_digest(cell: CampaignCell, obs, classification: str,
                  violations: tuple[str, ...]) -> dict:
    """The backend-independent summary two conforming runs must share."""
    digest = {
        "cell": cell.cell_id,
        "classification": classification,
        "violations": tuple(sorted(violations)),
        "finished": obs.finished,
        "handled": tuple(sorted(obs.handled.items())),
        "crashed": tuple(sorted(obs.crashed)),
    }
    if cell.fault == "none":
        # Fault-free runs must hit the paper's exact count on *every*
        # backend; fault cells' raw traffic is timing-dependent.
        digest["measured"] = obs.measured
        digest["expected"] = obs.expected
    return digest


@dataclass(frozen=True)
class BackendRun:
    """One cell executed on one backend, reduced for comparison."""

    backend: str
    digest: dict
    wall_seconds: float
    sim_duration: float

    @property
    def classification(self) -> str:
        return self.digest["classification"]


@dataclass(frozen=True)
class ConformanceCellResult:
    """One cell across all backends, plus the equality verdict."""

    cell: CampaignCell
    runs: tuple[BackendRun, ...]

    @property
    def match(self) -> bool:
        digests = [run.digest for run in self.runs]
        return all(d == digests[0] for d in digests[1:])

    @property
    def healthy(self) -> bool:
        """Every backend individually passed its oracles (stalls only
        where documented), *and* the backends agree."""
        acceptable = (OK, STALLED_EXPECTED)
        return self.match and all(
            run.classification in acceptable for run in self.runs
        )

    def divergent_keys(self) -> tuple[str, ...]:
        if self.match:
            return ()
        baseline = self.runs[0].digest
        keys = set()
        for run in self.runs[1:]:
            for key in baseline:
                if run.digest.get(key) != baseline[key]:
                    keys.add(key)
        return tuple(sorted(keys))

    def to_payload(self) -> dict:
        return {
            "cell": self.cell.cell_id,
            "match": self.match,
            "healthy": self.healthy,
            "divergent_keys": list(self.divergent_keys()),
            "runs": [
                {
                    "backend": run.backend,
                    "wall_seconds": run.wall_seconds,
                    "sim_duration": run.sim_duration,
                    "digest": {
                        k: list(v) if isinstance(v, tuple) else v
                        for k, v in run.digest.items()
                    },
                }
                for run in self.runs
            ],
        }


@dataclass
class ConformanceReport:
    """Aggregated conformance results, JSON-able for ``BENCH_rt.json``."""

    results: list[ConformanceCellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.healthy for result in self.results)

    def failures(self) -> list[ConformanceCellResult]:
        return [result for result in self.results if not result.healthy]

    def to_payload(self) -> dict:
        return {
            "cells": len(self.results),
            "ok": self.ok,
            "failures": [r.cell.cell_id for r in self.failures()],
            "results": [r.to_payload() for r in self.results],
        }


class ProtocolHarness:
    """Executes campaign cells on named backends and compares digests.

    Args:
        time_scale: wall seconds per virtual unit on the asyncio backend.
        backends: backend names (subset of :data:`repro.rt.BACKENDS`).
    """

    def __init__(
        self,
        backends: Sequence[str] = BACKENDS,
        time_scale: float = DEFAULT_TIME_SCALE,
    ) -> None:
        unknown = set(backends) - set(BACKENDS)
        if unknown:
            raise ValueError(f"unknown backends: {sorted(unknown)}")
        self.backends = tuple(backends)
        self.time_scale = time_scale

    def run_cell(
        self,
        cell: CampaignCell,
        backend: str,
        run_until: Optional[float] = None,
    ) -> BackendRun:
        """One cell on one backend, oracles applied, reduced to a digest."""
        horizon = cell_horizon(cell) if run_until is None else run_until
        started = time.perf_counter()
        with backend_scope(backend, time_scale=self.time_scale):
            obs = observe_cell(cell, run_until=horizon)
        wall = time.perf_counter() - started
        classification, violations = classify_observation(cell, obs)
        return BackendRun(
            backend=backend,
            digest=oracle_digest(cell, obs, classification, violations),
            wall_seconds=wall,
            sim_duration=obs.sim_duration,
        )

    def compare(self, cell: CampaignCell) -> ConformanceCellResult:
        """The cell on every backend; digests must agree."""
        return ConformanceCellResult(
            cell=cell,
            runs=tuple(self.run_cell(cell, name) for name in self.backends),
        )

    def run(
        self,
        cells: Sequence[CampaignCell],
        trace_dir: Optional[Path] = None,
    ) -> ConformanceReport:
        """Compare every cell; on divergence, export both sides' spans."""
        report = ConformanceReport()
        for cell in cells:
            result = self.compare(cell)
            report.results.append(result)
            if not result.healthy and trace_dir is not None:
                export_conformance_traces(
                    cell, trace_dir,
                    backends=self.backends, time_scale=self.time_scale,
                )
        return report


# -- default cell sets -----------------------------------------------------------

CONFORMANCE_VARIANTS = tuple(VARIANTS)


def conformance_cells(
    ns: Sequence[int] = (2, 3, 5),
    variants: Sequence[str] = CONFORMANCE_VARIANTS,
    seed: int = 0,
) -> list[CampaignCell]:
    """The fault-free conformance matrix: every variant at each N.

    Shapes follow the Section 4.4 workload: P = ⌈N/2⌉ raisers and, for
    the variants that model nesting, one nested member when N ≥ 3.
    """
    cells = []
    for n in ns:
        p = max(1, (n + 1) // 2)
        for variant in variants:
            q = 1 if n >= 3 and p < n and VARIANTS[variant].nests else 0
            cells.append(
                CampaignCell("paper", variant, "none", n, p, q, seed=seed)
            )
    return cells


def fault_cells(
    ns: Sequence[int] = (3, 5), seed: int = 0
) -> list[CampaignCell]:
    """Asyncio fault cells: drop for every variant, crashes per contract.

    The crash-tolerant variant must *finish* under a participant crash;
    the detector-less variants are allowed their documented stall (the
    oracle classifies it ``STALLED-EXPECTED``, which
    :attr:`ConformanceCellResult.healthy` accepts).
    """
    cells = []
    for n in ns:
        p = max(1, (n + 1) // 2)
        for variant in SERVABLE:
            q = 1 if n >= 3 and p < n and VARIANTS[variant].nests else 0
            cells.append(
                CampaignCell("paper", variant, "drop", n, p, q, seed=seed)
            )
        cells.append(
            CampaignCell("paper", "ct", "crash_participant", n, p, 0, seed=seed)
        )
        cells.append(
            CampaignCell("paper", "base", "crash_participant", n, p, 0, seed=seed)
        )
    return cells


# -- divergence artifacts --------------------------------------------------------


def export_conformance_traces(
    cell: CampaignCell,
    out_dir,
    backends: Sequence[str] = BACKENDS,
    time_scale: float = DEFAULT_TIME_SCALE,
) -> list[Path]:
    """Re-run ``cell`` on each backend and dump both span forests.

    Writes ``<cell>_<backend>.chrome.json`` (Perfetto-loadable) and
    ``<cell>_<backend>.tree.txt`` per backend and returns the paths —
    the diffable artifact pair for a sim-vs-real divergence.
    """
    from repro.obs import write_span_artifacts

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = cell.cell_id.replace(":", "_")
    paths: list[Path] = []
    for name in backends:
        with backend_scope(name, time_scale=time_scale):
            obs = observe_cell(cell, run_until=cell_horizon(cell))
        runtime = obs.runtime
        if runtime is None:
            continue
        chrome_path = out / f"{stem}_{name}.chrome.json"
        tree_path = out / f"{stem}_{name}.tree.txt"
        write_span_artifacts(
            runtime.spans, {"chrome": chrome_path, "tree": tree_path},
            runtime.sim.now, f"repro:{cell.cell_id}:{name}",
        )
        paths.extend([chrome_path, tree_path])
    return paths
