"""E20: fault-matrix campaign — protocol invariants under injected faults.

Sweeps the fault matrix from :mod:`repro.workloads.campaigns`: every
protocol variant (base Section 4.2, crash-tolerant, multicast,
centralised) crossed with every injector fault (drop, corruption,
partition, participant/resolver crash) on fuzzed Section 4.4 shapes plus
random nested worlds, each run checked against the invariant oracles
(termination, handler agreement, exactly-once activation, exact
fault-free message counts).

The campaign *fails* (exit 1) on any ``INVARIANT-VIOLATION``,
``STALLED-BUG`` or ``CRASHED-HARNESS`` cell, and on an oracle self-test
failure — the self-test seeds violations into a healthy cell and demands
the oracles catch every one, so a green table cannot come from blind
oracles.  Stalls are only accepted where the repo documents the variant
stalls (crashes under variants without a failure detector).

Results land in ``BENCH_faults.json`` at the repo root; every failing
cell carries a one-line repro command::

    PYTHONPATH=src python benchmarks/bench_fault_campaigns.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_fault_campaigns.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_fault_campaigns.py --cell ID  # one repro
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow plain `python benchmarks/...`
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record_table  # noqa: E402

from repro.workloads.campaigns import (  # noqa: E402
    default_matrix,
    export_cell_trace,
    oracle_selftest,
    parse_cell_id,
    run_campaign,
    run_cell,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_faults.json"


def _dump_trace(cell, trace_dir: Path) -> None:
    """Best-effort causal-trace dump for one cell (never fails the run)."""
    try:
        path = export_cell_trace(cell, trace_dir)
        print(f"  causal trace -> {path}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 — diagnostics must not mask results
        print(
            f"  causal trace export failed for {cell.cell_id}: {exc}",
            file=sys.stderr,
        )


def _run_one(cell_id: str, trace_dir: Path | None = None) -> int:
    """Re-run a single cell verbosely (the repro path for failures)."""
    cell = parse_cell_id(cell_id)
    outcome = run_cell(cell)
    print(f"cell:           {cell.cell_id}")
    print(f"classification: {outcome.classification}")
    print(f"measured:       {outcome.measured}  expected: {outcome.expected}")
    print(f"sim duration:   {outcome.sim_duration}")
    for violation in outcome.violations:
        print(f"violation:      {violation}")
    if outcome.detail:
        print(f"--- harness detail ---\n{outcome.detail}")
    if trace_dir is not None:
        _dump_trace(cell, trace_dir)
    return 1 if outcome.bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small matrix (58 cells), suitable as a <60s CI gate",
    )
    parser.add_argument(
        "--cell", type=str, default=None, metavar="ID",
        help="re-run one cell by id (the repro line of a failing cell)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="pool size for the cell fan-out (default: all usable cores)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="dump causal traces (chrome JSON + span tree) of every "
             "failing cell into DIR; with --cell, dump that cell",
    )
    args = parser.parse_args(argv)

    if args.cell is not None:
        return _run_one(args.cell, trace_dir=args.trace_dir)

    selftest_problems = oracle_selftest(seed=args.seed)
    for problem in selftest_problems:
        print(f"ORACLE SELF-TEST FAILURE: {problem}", file=sys.stderr)

    cells = default_matrix(smoke=args.smoke, seed=args.seed)
    start = time.perf_counter()
    report = run_campaign(cells, workers=args.workers)
    elapsed = time.perf_counter() - start

    payload = {
        "schema": 1,
        "generated_unix": round(time.time(), 3),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "smoke": args.smoke,
            "seed": args.seed,
            "workers": args.workers,
        },
        "wall_seconds": round(elapsed, 3),
        "selftest_problems": selftest_problems,
        **report.to_payload(),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    # Per (variant, fault) classification summary for the recorded table.
    by_combo: dict[tuple[str, str, str], Counter] = {}
    for outcome in report.outcomes:
        key = (outcome.cell.family, outcome.cell.variant, outcome.cell.fault)
        by_combo.setdefault(key, Counter())[outcome.classification] += 1
    rows = [
        (
            family, variant, fault,
            str(sum(tally.values())),
            " ".join(f"{cls}={count}" for cls, count in sorted(tally.items())),
        )
        for (family, variant, fault), tally in sorted(by_combo.items())
    ]
    counts = report.counts()
    record_table(
        "E20",
        "fault-matrix campaign: classifications by variant and fault",
        ("family", "variant", "fault", "cells", "classifications"),
        rows,
        notes=(
            f"{len(report.outcomes)} cells in {elapsed:.1f}s "
            f"(seed={args.seed}, smoke={args.smoke}); "
            f"totals: {', '.join(f'{k}={v}' for k, v in counts.items())}; "
            f"oracle self-test: "
            f"{'FAILED' if selftest_problems else 'all sabotages caught'}"
        ),
        persist=args.out == DEFAULT_OUT,
    )
    print(f"\nwrote {args.out}")

    for outcome in report.failures():
        print(f"FAILING CELL: {outcome.repro_line()}", file=sys.stderr)
        for violation in outcome.violations:
            print(f"  {violation}", file=sys.stderr)
        if args.trace_dir is not None:
            _dump_trace(outcome.cell, args.trace_dir)
    if selftest_problems or not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
