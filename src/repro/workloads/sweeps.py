"""Parameter sweeps over the paper's workload space.

A thin, typed API for what the benchmark harness does by hand: run a
family of scenarios across a parameter grid, collect the measured message
counts next to the Section 4.4 model values, and expose the rows ready
for tabulation or power-law fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.analysis.fitting import PowerLawFit, fit_power_law
from repro.analysis.formulas import general_messages
from repro.analysis.metrics import resolution_timeline
from repro.net.latency import LatencyModel
from repro.simkernel.trace import TraceLevel
from repro.workloads.generator import general_case


@dataclass(frozen=True)
class SweepPoint:
    """One measured (N, P, Q) workload."""

    n: int
    p: int
    q: int
    measured: int
    model: int
    commit_latency: Optional[float]

    @property
    def matches_model(self) -> bool:
        return self.measured == self.model


@dataclass
class SweepResult:
    """All points of one sweep with summary helpers."""

    points: list[SweepPoint]

    def mismatches(self) -> list[SweepPoint]:
        return [p for p in self.points if not p.matches_model]

    def fit_in_n(self) -> PowerLawFit:
        """Power-law fit of measured messages against N (requires at least
        two distinct N with nonzero counts)."""
        return fit_power_law(
            [(p.n, p.measured) for p in self.points if p.measured > 0]
        )

    def rows(self) -> list[tuple]:
        return [
            (p.n, p.p, p.q, p.model, p.measured,
             "OK" if p.matches_model else "MISMATCH")
            for p in self.points
        ]


def measure_point(
    n: int,
    p: int,
    q: int,
    latency: LatencyModel | None = None,
    seed: int = 0,
    trace_level: TraceLevel = TraceLevel.FULL,
    **scenario_kwargs,
) -> SweepPoint:
    """Run one (N, P, Q) workload and produce its :class:`SweepPoint`.

    The one measurement function: :func:`sweep_general` loops over it and
    a pooled sweep maps it with :func:`repro.workloads.parallel.parallel_map`,
    so both produce bit-identical points.  Under ``COUNTS`` tracing the
    commit-latency timeline cannot be extracted (it needs full entries), so
    ``commit_latency`` is ``None`` — measured counts are unaffected.
    """
    result = general_case(
        n, p, q, latency=latency, seed=seed, trace_level=trace_level,
        **scenario_kwargs,
    ).run()
    trace = result.runtime.trace
    commit_latency = None
    if trace.level is TraceLevel.FULL:
        commit_latency = resolution_timeline(trace, "A1").detection_to_commit
    return SweepPoint(
        n=n, p=p, q=q,
        measured=result.resolution_message_total(),
        model=general_messages(n, p, q),
        commit_latency=commit_latency,
    )


def sweep_general(
    grid: Iterable[tuple[int, int, int]],
    latency: LatencyModel | None = None,
    seed: int = 0,
    trace_level: TraceLevel = TraceLevel.FULL,
    **scenario_kwargs,
) -> SweepResult:
    """Measure the (N, P, Q) workloads in ``grid``."""
    points = [
        measure_point(
            n, p, q, latency=latency, seed=seed, trace_level=trace_level,
            **scenario_kwargs,
        )
        for n, p, q in grid
    ]
    return SweepResult(points)


def full_grid(n_values: Sequence[int]) -> list[tuple[int, int, int]]:
    """Every legal (N, P, Q) with P ≥ 1 for the given N values."""
    grid = []
    for n in n_values:
        for p in range(1, n + 1):
            for q in range(0, n - p + 1):
                grid.append((n, p, q))
    return grid


def scaling_grid(
    n_values: Sequence[int],
    p_of_n=lambda n: max(1, n // 2),
    q_of_n=lambda n: n // 4,
) -> list[tuple[int, int, int]]:
    """A grid where P and Q scale with N (the Θ(N²) regime)."""
    return [(n, p_of_n(n), q_of_n(n)) for n in n_values]
