"""The committed experiment tables are what the registry renders.

Every row of :data:`repro.analysis.report.EXPERIMENTS` must reproduce
``benchmarks/results/<id>.txt`` byte for byte, with its checks holding, so
a stale table fails the suite.  EXPERIMENTS.md quotes those tables and
never retypes them: each fenced block under a ``## E<k>`` heading that
names a registry table is a contiguous run of that table's lines.

Rewrite a table on purpose only:
``PYTHONPATH=src python benchmarks/experiments.py <ID>``.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.report import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_row_reproduces_the_committed_table(exp_id: str) -> None:
    row = EXPERIMENTS[exp_id]
    assert row.text() == (RESULTS / f"{exp_id}.txt").read_text()
    assert row.result.holds


def _fenced_blocks() -> list[tuple[str, list[str]]]:
    """``(section id, lines)`` of every fenced block under ``## E<k> …``."""
    blocks: list[tuple[str, list[str]]] = []
    section, block = None, None
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        if block is not None:
            if line.startswith("```"):
                blocks.append((section, block))
                block = None
            else:
                block.append(line)
        elif line.startswith("```"):
            block = []
        elif line.startswith("## "):
            match = re.match(r"## (E\d+) ", line)
            section = match.group(1) if match else None
    return [(section, lines) for section, lines in blocks if section]


def test_experiments_md_quotes_the_tables_verbatim() -> None:
    quoted = misquoted = 0
    for section, block in _fenced_blocks():
        tables = [
            (RESULTS / f"{exp_id}.txt").read_text().splitlines()
            for exp_id in EXPERIMENTS
            if re.fullmatch(rf"{section}[a-z]?", exp_id)
        ]
        if not tables:
            continue  # not a registry table (E20 and later campaigns)
        quoted += 1
        if not any(
            lines[i:i + len(block)] == block
            for lines in tables
            for i in range(len(lines) - len(block) + 1)
        ):
            misquoted += 1
            print(f"{section}: not a slice of its table:\n" + "\n".join(block))
    assert quoted and not misquoted
