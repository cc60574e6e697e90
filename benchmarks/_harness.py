"""The one writer of ``benchmarks/results/<exp_id>.txt``.

The paper's tables are rows of :mod:`repro.analysis.report` and are
rewritten by ``benchmarks/experiments.py``; the campaign benches and
``mutation_smoke.py`` (E20, E23, E24, E26–E29) record their own tables
here in the same layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.analysis.report import format_table

RESULTS_DIR = Path(__file__).parent / "results"


def record_table(
    exp_id: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
) -> str:
    """Format, print and persist one experiment's table."""
    text = format_table(exp_id, title, headers, rows, notes)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
    print("\n" + text)
    return text
