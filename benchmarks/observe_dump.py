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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the smoke matrices (66 cells)")
    parser.add_argument("--out", required=True, help="the JSON-lines file")
    args = parser.parse_args(argv)
    lines = dump(smoke=args.smoke)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} cells -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
