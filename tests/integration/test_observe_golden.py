"""The behaviour golden: what every campaign cell observes, pinned.

``tests/golden/observe.jsonl`` holds one compact line per cell of
``default_matrix(seed=0)`` + ``recovery_matrix(seed=0)`` (322 cells): the
small fields of ``benchmarks/observe_dump.py``'s line, the sha256 of its
``trace_counts`` and of its trace.  A change that moves any cell's
behaviour fails here with one row per differing field.  Regenerate on
purpose only, which prints each change old -> new:
``PYTHONPATH=src python benchmarks/observe_dump.py --regenerate-golden``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
#: A value longer than this is cut in the report (hashes stay whole).
WIDTH = 72


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "observe_dump_for_golden", BENCH_DIR / "observe_dump.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def cut(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= WIDTH else text[: WIDTH - 1] + "…"


def differing(expected, actual) -> tuple:
    """Two dicts cut down to the keys whose values differ."""
    if not (isinstance(expected, dict) and isinstance(actual, dict)):
        return expected, actual
    keys = {k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k)}
    return (
        {k: v for k, v in expected.items() if k in keys},
        {k: v for k, v in actual.items() if k in keys},
    )


def report(found, cells: int) -> str:
    """Expected / actual / status rows, one per differing field."""
    lines = ["| cell | field | expected | actual | status |", "|---|---|---|---|---|"]
    for cell, field, expected, actual in found:
        expected, actual = differing(expected, actual)
        lines.append(f"| {cell} | {field} | {cut(expected)} | {cut(actual)} | FAIL |")
    failing = len({cell for cell, *_ in found})
    lines.append(f"Status: FAIL, {cells - failing}/{cells} cells match the golden")
    return "\n".join(lines)


def test_every_cell_observes_what_the_golden_holds():
    module = _load_module()
    expected = module.read_golden()
    assert expected, f"no golden at {module.GOLDEN}"
    actual = module.golden_rows()
    found = module.changes(expected, actual)
    if found:
        pytest.fail("\n" + report(found, len(actual)), pytrace=False)
