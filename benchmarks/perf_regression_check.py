"""Perf-regression gate: fresh smoke numbers vs the recorded baseline.

Compares the simulator throughput figures of a fresh
``bench_perf_suite.py --smoke`` run against a recorded ``BENCH_sweeps.json``
with a deliberately generous tolerance (default 30%), and **re-measures
before failing**: a candidate regression triggers a second in-process
throughput measurement, and only a *sustained* shortfall — both the fresh
run and the retry below the floor — fails the gate.  One-off scheduler
noise, a cold file cache, or a busy CI neighbour must never turn the job
red; a real 2× slowdown always will.

Two machine-independent invariants are also enforced (they compare the
same machine against itself):

* COUNTS throughput must not fall below FULL by more than the tolerance —
  the zero-allocation COUNTS path regressing back to *slower than FULL*
  was a real historical inversion;
* COUNTS events/sec at N=256 must be at least 0.95× events/sec at N=64
  (both best-of-5 in one process): per-event cost must not grow with N.
  It did (ratio ≈0.86) while every event went through one binary heap and
  every HaveNested receipt swept all Q nested-action names; like the
  baseline comparison, a shortfall is re-measured once before it fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py --smoke --out fresh.json
    PYTHONPATH=src python benchmarks/perf_regression_check.py \
        --baseline BENCH_sweeps.json --fresh fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))


#: Floor of the N=256 / N=64 COUNTS events/sec ratio.
N_SCALING_FLOOR = 0.95


def _remeasure_n_scaling() -> float:
    from bench_perf_suite import bench_n_scaling

    return bench_n_scaling()["ratio"]


def _throughputs(payload: dict) -> dict[str, int]:
    throughput = payload.get("throughput", {})
    return {
        level: throughput[level]["events_per_sec"]
        for level in ("full", "counts")
        if level in throughput and "events_per_sec" in throughput[level]
    }


def check(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Problems that survive a re-measurement; empty list = gate passes."""
    problems: list[str] = []
    base = _throughputs(baseline)
    current = _throughputs(fresh)

    retried: dict[str, int] = {}
    for level, base_eps in base.items():
        floor = base_eps * (1.0 - tolerance)
        eps = current.get(level, 0)
        if eps >= floor:
            continue
        # Candidate regression: measure again before believing it.  The
        # retry runs in this (warm) process, so a cold-start artifact in
        # the fresh run cannot produce a false alarm.
        if not retried:
            from bench_perf_suite import bench_throughput

            n = fresh.get("throughput", {}).get(level, {}).get("n", 32)
            retried = {
                lvl: stats["events_per_sec"]
                for lvl, stats in bench_throughput(n).items()
            }
        best = max(eps, retried.get(level, 0))
        if best < floor:
            problems.append(
                f"sustained {level.upper()} throughput regression: "
                f"{eps} then {retried.get(level, 0)} events/sec, "
                f"floor {floor:.0f} (baseline {base_eps}, "
                f"tolerance {tolerance:.0%})"
            )

    # Same-machine invariants (fresh run only, no cross-machine noise).
    full = current.get("full", 0)
    counts = current.get("counts", 0)
    if full and counts < full * (1.0 - tolerance):
        problems.append(
            f"COUNTS inversion: {counts} events/sec vs FULL {full} — the "
            "zero-allocation path is slower than full tracing again"
        )
    scaling = fresh.get("n_scaling", {}).get("ratio")
    if scaling is not None and scaling < N_SCALING_FLOOR:
        again = _remeasure_n_scaling()
        if again < N_SCALING_FLOOR:
            problems.append(
                f"sustained N-scaling regression: events/sec at N=256 is "
                f"{scaling}x then {again}x that at N=64, floor "
                f"{N_SCALING_FLOOR}x — a per-event cost grows with N again"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=REPO_ROOT / "BENCH_sweeps.json",
        help="recorded baseline JSON (default: repo BENCH_sweeps.json)",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="freshly generated BENCH_sweeps.json to validate",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional slowdown before failing (default: 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    problems = check(baseline, fresh, args.tolerance)
    for level, eps in sorted(_throughputs(fresh).items()):
        base = _throughputs(baseline).get(level)
        print(f"{level}: {eps} events/sec (baseline {base})")
    print(f"N=256 / N=64 events/sec: {fresh.get('n_scaling', {}).get('ratio')}x")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
