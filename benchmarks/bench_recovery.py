"""E28: crash-restart recovery — WAL replay and the rejoin protocol.

Runs the recovery matrix from :mod:`repro.workloads.campaigns`: fuzzed
Section 4.4 shapes on the crash-tolerant variant, each cell backed by a
real per-node write-ahead log.  The victim crashes mid-protocol (mid
nested *abortion* when the shape has nested members) with an open work
transaction, its node restarts — early (before the survivors resolve),
late (after), or as the would-be resolver — and the oracles demand:

* the returnee's WAL replay undid the transaction the crash cut short and
  its durable object state is back to the pre-action snapshot;
* the returnee **rejoined with the agreed handler** (early/resolver
  restarts) or **confirmed its abort** (late restarts) — and a rejoined
  returnee re-enters the agreement and exactly-once oracles;
* fault-free cells with the durable layer attached still reproduce the
  exact ``(N-1)(2P+2Q+1)`` message count — durability costs no messages.

A WAL microbenchmark rides along: append/sync/scan/replay throughput over
a representative record mix, with and without real ``fsync``, so the
recovery path's cost is a recorded number rather than folklore.

The run *fails* (exit 1) on any ``INVARIANT-VIOLATION``, ``STALLED-BUG``
or ``CRASHED-HARNESS`` cell, and on a recovery-oracle self-test failure.
Results land in ``BENCH_recovery.json``::

    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke   # CI gate
    PYTHONPATH=src python benchmarks/bench_recovery.py           # full matrix
    PYTHONPATH=src python benchmarks/bench_recovery.py --cell ID # one repro
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
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
    parse_cell_id,
    recovery_matrix,
    recovery_oracle_selftest,
    run_campaign,
    run_cell,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_recovery.json"


def wal_microbench(records: int = 2000, fsync: bool = False) -> dict:
    """Append/sync/scan/replay throughput over a representative log."""
    from repro.transactions.atomic_object import AtomicObject
    from repro.transactions.wal import WriteAheadLog, recover, scan_wal

    with tempfile.TemporaryDirectory(prefix="repro-walbench-") as tmp:
        path = Path(tmp) / "bench.wal"
        wal = WriteAheadLog(path, fsync=fsync)
        start = time.perf_counter()
        for i in range(records):
            wal.log_begin(i)
            wal.log_write(i, "obj", f"k{i % 64}", i - 1, existed=bool(i))
            if i % 3 == 0:
                wal.log_abort(i)  # sync point
            else:
                wal.log_commit(i, top=True)  # sync point
        wal.close()
        append_s = time.perf_counter() - start
        size = path.stat().st_size
        start = time.perf_counter()
        scan = scan_wal(path)
        scan_s = time.perf_counter() - start
        start = time.perf_counter()
        recovery, reopened = recover(
            path, {"obj": AtomicObject("obj")}, fsync=fsync
        )
        recover_s = time.perf_counter() - start
        reopened.close()
        return {
            "records": len(scan.records),
            "bytes": size,
            "fsync": fsync,
            "append_seconds": round(append_s, 4),
            "appends_per_second": round(len(scan.records) / append_s, 1),
            "scan_seconds": round(scan_s, 4),
            "recover_seconds": round(recover_s, 4),
            "recovered_incomplete": len(recovery.incomplete),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small matrix (8 cells), suitable as a CI gate",
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
    args = parser.parse_args(argv)

    if args.cell is not None:
        cell = parse_cell_id(args.cell)
        outcome = run_cell(cell)
        print(f"cell:           {cell.cell_id}")
        print(f"classification: {outcome.classification}")
        print(f"measured:       {outcome.measured}  expected: {outcome.expected}")
        for violation in outcome.violations:
            print(f"violation:      {violation}")
        if outcome.detail:
            print(f"--- harness detail ---\n{outcome.detail}")
        return 1 if outcome.bad else 0

    selftest_problems = recovery_oracle_selftest(seed=args.seed)
    for problem in selftest_problems:
        print(f"RECOVERY ORACLE SELF-TEST FAILURE: {problem}", file=sys.stderr)

    cells = recovery_matrix(smoke=args.smoke, seed=args.seed)
    start = time.perf_counter()
    report = run_campaign(cells, workers=args.workers)
    elapsed = time.perf_counter() - start

    micro = [wal_microbench(fsync=False)]
    if not args.smoke:
        micro.append(wal_microbench(fsync=True))

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
        "wal_microbench": micro,
        **report.to_payload(),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    by_fault: dict[str, Counter] = {}
    for outcome in report.outcomes:
        by_fault.setdefault(outcome.cell.fault, Counter())[
            outcome.classification
        ] += 1
    rows = [
        (
            fault,
            str(sum(tally.values())),
            " ".join(f"{cls}={count}" for cls, count in sorted(tally.items())),
        )
        for fault, tally in sorted(by_fault.items())
    ]
    counts = report.counts()
    record_table(
        "E28",
        "crash-restart recovery: WAL replay + rejoin protocol by fault",
        ("fault", "cells", "classifications"),
        rows,
        notes=(
            f"{len(report.outcomes)} cells in {elapsed:.1f}s "
            f"(seed={args.seed}, smoke={args.smoke}); "
            f"totals: {', '.join(f'{k}={v}' for k, v in counts.items())}; "
            f"WAL append {micro[0]['appends_per_second']}/s (fsync=off); "
            f"recovery oracle self-test: "
            f"{'FAILED' if selftest_problems else 'sabotage caught'}"
        ),
        persist=args.out == DEFAULT_OUT,
    )
    print(f"\nwrote {args.out}")

    for outcome in report.failures():
        print(f"FAILING CELL: {outcome.repro_line()}", file=sys.stderr)
        for violation in outcome.violations:
            print(f"  {violation}", file=sys.stderr)
    if selftest_problems or not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
