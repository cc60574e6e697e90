"""Rewrite the committed experiment tables from the registry.

    PYTHONPATH=src python benchmarks/experiments.py            # every table
    PYTHONPATH=src python benchmarks/experiments.py E7 E16     # some of them

Each id is a row of :data:`repro.analysis.report.EXPERIMENTS`; its table
lands in ``benchmarks/results/<id>.txt``.  The tests fail while a committed
table differs from what its row renders, so run this only to change a
table on purpose.  Exits 1 if a row's checks fail (the table is still
written, so the difference can be read).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from _harness import record_table  # noqa: E402

from repro.analysis.report import EXPERIMENTS  # noqa: E402


def main(ids: list[str]) -> int:
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown ids {unknown}; known: {' '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    failed = []
    for row in (EXPERIMENTS[exp_id] for exp_id in ids or EXPERIMENTS):
        rows, notes, holds = row.result
        record_table(row.id, row.title, row.headers, rows, notes)
        if not holds:
            failed.append(row.id)
    if failed:
        print(f"\nchecks fail: {' '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
