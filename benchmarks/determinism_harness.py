"""Determinism regression harness: pinned repros must never drift.

Every module under ``tests/regressions/`` that defines the pinned-cell
constants (module-level ``CELL`` and ``MINIMIZED``) encodes a one-line
repro: *this cell under this schedule produces exactly this outcome*.
The whole exploration edifice rests on those replays being bit-identical
— across interpreter restarts, across ``PYTHONHASHSEED`` (set ordering
leaks into iteration-order bugs), and across a process boundary (a
replay made by a forked ``parallel_map`` worker must equal the in-process
one).

This harness replays every pinned schedule **5x in fresh interpreters**
under distinct hash seeds and worker counts and asserts the full repro
line — classification, digest, trace hash — is identical every time.
A round with two workers maps two items (the pinned schedule and ``fifo``
on the same cell: a one-item map never leaves the process) and fails
unless both replays ran in a pid other than the interpreter's own.
Any drift is a determinism regression in the simkernel, the scheduler,
or the replay path, and fails loudly with the differing lines.

    PYTHONPATH=src python benchmarks/determinism_harness.py
    PYTHONPATH=src python benchmarks/determinism_harness.py --repeats 3
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
REGRESSIONS = REPO_ROOT / "tests" / "regressions"
DEFAULT_OUT = REPO_ROOT / "BENCH_determinism.json"

#: (PYTHONHASHSEED, parallel_map workers) per replay round: distinct
#: hash seeds shake out set/dict-order dependence; worker counts >1 route
#: the replay through a forked pool worker.
ROUNDS = ((0, 1), (1, 1), (42, 2), (12345, 2), (99991, 1))

_REPLAY_SNIPPET = """
import json, os
from repro.explore import replay_cell
from repro.workloads.parallel import parallel_map

def replay_in(item):
    return os.getpid(), replay_cell(item)

cell, schedule, workers = {cell!r}, {schedule!r}, {workers}
replays = parallel_map(
    replay_in, [(cell, schedule), (cell, "fifo")], workers=workers
)
print(json.dumps({{
    "parent_pid": os.getpid(),
    "replay_pids": [pid for pid, _ in replays],
    "lines": [
        {{
            "cell": outcome.cell_id,
            "schedule": outcome.schedule,
            "classification": outcome.classification,
            "violations": list(outcome.violations),
            "digest": repr(outcome.digest),
            "trace_hash": outcome.trace_hash,
        }}
        for _, outcome in replays
    ],
}}, sort_keys=True))
"""


def pinned_cells(root: Path = REGRESSIONS) -> list[tuple[str, str, str]]:
    """``(module, CELL, MINIMIZED)`` for every pinned regression module.

    Parsed statically (``ast``) so a scan never imports or executes test
    code; modules without both constants are simply not pinned repros.
    """
    pins = []
    for path in sorted(root.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        constants: dict[str, str] = {}
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("CELL", "MINIMIZED")
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                constants[node.targets[0].id] = node.value.value
        if "CELL" in constants and "MINIMIZED" in constants:
            pins.append((path.name, constants["CELL"], constants["MINIMIZED"]))
    return pins


def replay_once(
    cell: str, schedule: str, hash_seed: int, workers: int,
    timeout: float = 300.0,
) -> dict:
    """Replay ``schedule`` and ``fifo`` on ``cell`` in a fresh interpreter.

    Returns ``{"parent_pid", "replay_pids", "lines"}`` — ``lines`` are the
    two repro lines; raises if the interpreter fails, or if ``workers > 1``
    and a replay ran in the interpreter's own process.
    """
    code = _REPLAY_SNIPPET.format(
        cell=cell, schedule=schedule, workers=workers
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"replay of {cell} / {schedule} (hashseed={hash_seed}, "
            f"workers={workers}) crashed:\n{proc.stderr.strip()[-2000:]}"
        )
    replay = json.loads(proc.stdout.strip().splitlines()[-1])
    if workers > 1 and replay["parent_pid"] in replay["replay_pids"]:
        raise RuntimeError(
            f"replay of {cell} / {schedule} (workers={workers}) never left "
            f"the parent process (pid {replay['parent_pid']})"
        )
    return replay


def check_pin(
    module: str, cell: str, schedule: str, repeats: int
) -> dict:
    """Replay one pin across the rounds; returns the verdict record."""
    rounds = [
        {
            "hash_seed": hash_seed, "workers": workers,
            **replay_once(cell, schedule, hash_seed, workers),
        }
        for hash_seed, workers in ROUNDS[:repeats]
    ]
    distinct = sorted(
        {json.dumps(replay["lines"], sort_keys=True) for replay in rounds}
    )
    return {
        "module": module,
        "cell": cell,
        "schedule": schedule,
        "rounds": rounds,
        "deterministic": len(distinct) == 1,
        "distinct_lines": distinct,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=len(ROUNDS),
        help=f"replay rounds per pin (default {len(ROUNDS)})",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    repeats = max(2, min(args.repeats, len(ROUNDS)))

    pins = pinned_cells()
    if not pins:
        print("no pinned regression modules found", file=sys.stderr)
        return 1

    started = time.perf_counter()
    results = []
    failures = 0
    for module, cell, schedule in pins:
        record = check_pin(module, cell, schedule, repeats)
        results.append(record)
        status = "stable " if record["deterministic"] else "DRIFTED"
        print(f"{status} {module}: {cell} / {schedule}")
        if not record["deterministic"]:
            failures += 1
            for line in record["distinct_lines"]:
                print(f"  {line}", file=sys.stderr)
    elapsed = time.perf_counter() - started

    payload = {
        "schema": 1,
        "experiment": "E29-determinism",
        "generated_unix": round(time.time(), 3),
        "config": {"repeats": repeats, "pins": len(pins)},
        "wall_seconds": round(elapsed, 3),
        "failures": failures,
        "ok": failures == 0,
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out} ({len(pins)} pins x {repeats} rounds, "
          f"{elapsed:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
