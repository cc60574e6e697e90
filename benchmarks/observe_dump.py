"""Dump what every campaign cell observes, one JSON line per cell.

The equivalence check for a change that must not move behaviour: run
this on the parent tree and on the change, then compare the two files
(``cmp`` or ``diff``).  The cells are ``default_matrix(seed=0)`` +
``recovery_matrix(seed=0)`` (322 cells; ``--smoke`` runs the smoke
matrices, 66 cells).  Each line holds, with sorted keys:

* the cell id and every field of ``campaigns.observe_cell``'s result:
  ``finished``, ``handled``, ``double_handled``, ``problems``,
  ``measured``, ``expected``, ``crashed``, ``survivors``,
  ``sim_duration`` and ``detail``;
* the run's ``events_executed``, ``sent_by_kind``, ``delivered_by_kind``
  and the trace's per-category ``counts``;
* the ARQ tallies when the network is a ``ReliableNetwork``;
* ``trace_sha256``: a hash of the repr of every trace entry.

Message ids are reset before each cell, so a cell's line does not depend
on its position in the matrix.  To run it on another tree, copy this file
into that tree's ``benchmarks/``::

    PYTHONPATH=src python benchmarks/observe_dump.py --out parent.jsonl

The committed behaviour golden ``tests/golden/observe.jsonl`` holds the 322
lines in compact form (:func:`compact`: ``trace_counts`` as its sha256) and
``tests/integration/test_observe_golden.py`` compares every cell with it.
Regenerate it on purpose only; the flag prints each changed field of each
changed cell, old -> new::

    PYTHONPATH=src python benchmarks/observe_dump.py --regenerate-golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import zip_longest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.net.message import reset_msg_ids  # noqa: E402
from repro.net.reliable import ReliableNetwork  # noqa: E402
from repro.workloads.campaigns import (  # noqa: E402
    default_matrix,
    observe_cell,
    recovery_matrix,
)

GOLDEN = REPO_ROOT / "tests" / "golden" / "observe.jsonl"

#: The ``ReliableNetwork`` counters a line carries when the cell ran ARQ.
ARQ_TALLIES = (
    "retransmissions", "transport_acks", "duplicates_dropped", "dead_letters",
)


def cells(smoke: bool = False) -> list:
    return default_matrix(smoke=smoke, seed=0) + recovery_matrix(
        smoke=smoke, seed=0
    )


def observe(cell) -> dict:
    """One cell's line, as a dict."""
    reset_msg_ids()
    obs = observe_cell(cell)
    runtime = obs.runtime
    network = runtime.network
    trace = hashlib.sha256()
    for entry in runtime.trace.entries:
        trace.update(repr(entry).encode())
        trace.update(b"\n")
    row = {
        "cell": cell.cell_id,
        "finished": obs.finished,
        "handled": obs.handled,
        "double_handled": obs.double_handled,
        "problems": obs.problems,
        "measured": obs.measured,
        "expected": obs.expected,
        "crashed": list(obs.crashed),
        "survivors": list(obs.survivors),
        "sim_duration": obs.sim_duration,
        "detail": obs.detail,
        "events_executed": runtime.sim.events_executed,
        "sent_by_kind": dict(network.sent_by_kind),
        "delivered_by_kind": dict(network.delivered_by_kind),
        "trace_counts": dict(runtime.trace.counts),
        "trace_sha256": trace.hexdigest(),
    }
    if isinstance(network, ReliableNetwork):
        row["arq"] = {name: getattr(network, name) for name in ARQ_TALLIES}
    return row


def dump(smoke: bool = False) -> list[str]:
    """Every cell's line, in matrix order."""
    return [json.dumps(observe(cell), sort_keys=True) for cell in cells(smoke)]


def compact(row: dict) -> dict:
    """A line of the golden: ``row`` with ``trace_counts`` as its sha256."""
    small = {key: value for key, value in row.items() if key != "trace_counts"}
    counts = json.dumps(row["trace_counts"], sort_keys=True).encode()
    small["trace_counts_sha256"] = hashlib.sha256(counts).hexdigest()
    return small


def golden_rows() -> list[dict]:
    """Every cell's compact line, in matrix order."""
    return [compact(observe(cell)) for cell in cells()]


def read_golden(path: Path = GOLDEN) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def changes(old: list[dict], new: list[dict]) -> list[tuple[str, str, object, object]]:
    """``(cell, field, old, new)`` for each field that differs, line by
    line; a line whose cell differs, or that one side lacks, is one change
    with field ``*``."""
    found = []
    for before, after in zip_longest(old, new):
        if before is None or after is None or before["cell"] != after["cell"]:
            cell = (after or before)["cell"]
            found.append((cell, "*", before, after))
            continue
        for key in sorted(set(before) | set(after)):
            if before.get(key) != after.get(key):
                found.append((after["cell"], key, before.get(key), after.get(key)))
    return found


def regenerate_golden(path: Path = GOLDEN) -> int:
    """Rewrite the golden, printing each changed field old -> new."""
    old, new = read_golden(path), golden_rows()
    found = changes(old, new)
    for cell, key, before, after in found:
        print(f"{cell} {key}: {json.dumps(before)} -> {json.dumps(after)}")
    lines = [json.dumps(row, sort_keys=True) for row in new]
    path.write_text("\n".join(lines) + "\n")
    changed = sum(before != after for before, after in zip_longest(old, new))
    print(f"{changed} of {len(new)} cells changed -> {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the smoke matrices (66 cells)")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", help="the JSON-lines file")
    target.add_argument("--regenerate-golden", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(REPO_ROOT)} (all cells)")
    args = parser.parse_args(argv)
    if args.regenerate_golden:
        return regenerate_golden()
    lines = dump(smoke=args.smoke)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} cells -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
