"""The one writer of ``benchmarks/results/<exp_id>.txt``.

The paper's tables are rows of :mod:`repro.analysis.report` and are
rewritten by ``benchmarks/experiments.py``; the campaign benches and
``mutation_smoke.py`` (E20, E23, E24, E26–E29) record their own tables
here in the same layout.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Sequence

from repro.analysis.report import format_table
from repro.workloads.parallel import usable_cpus

RESULTS_DIR = Path(__file__).parent / "results"


def record_table(
    exp_id: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
    persist: bool = True,
) -> str:
    """Format and print one experiment's table; ``persist`` also writes it
    to ``RESULTS_DIR``.  A bench passes ``persist=args.out == DEFAULT_OUT``,
    so a run whose report goes elsewhere leaves the committed table alone."""
    text = format_table(exp_id, title, headers, rows, notes)
    if persist:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def machine() -> dict[str, object]:
    """The machine a report was recorded on: the ``machine`` block of
    ``BENCH_explore.json`` and ``BENCH_mutation.json``."""
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
