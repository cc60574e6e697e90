"""The observation dump: the equivalence check's input must be stable.

``benchmarks/observe_dump.py`` writes one line per campaign cell; a
change that must not move behaviour is checked by comparing its dump
with the parent's.  That comparison shows only a change in behaviour if
the dump itself is deterministic and carries every field.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

FIELDS = {
    "cell", "finished", "handled", "double_handled", "problems", "measured",
    "expected", "crashed", "survivors", "sim_duration", "detail",
    "events_executed", "sent_by_kind", "delivered_by_kind",
    "trace_counts", "trace_sha256",
}


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "observe_dump_under_test", BENCH_DIR / "observe_dump.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def module():
    return _load_module()


@pytest.fixture(scope="module")
def smoke_dump(module):
    return module.dump(smoke=True)


def test_every_row_carries_every_field(module, smoke_dump):
    rows = [json.loads(line) for line in smoke_dump]
    assert [row["cell"] for row in rows] == [
        cell.cell_id for cell in module.cells(smoke=True)
    ]
    for row in rows:
        assert FIELDS <= set(row), row["cell"]
        assert set(row) - FIELDS <= {"arq"}, row["cell"]
        if "arq" in row:
            assert set(row["arq"]) == set(module.ARQ_TALLIES)
    assert any("arq" in row for row in rows)
    assert any("arq" not in row for row in rows)


def test_a_second_dump_writes_the_same_lines(module, smoke_dump, tmp_path):
    out = tmp_path / "dump.jsonl"
    assert module.main(["--smoke", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == smoke_dump
