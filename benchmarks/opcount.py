"""Opcodes and Python frames per action on the three perf workloads.

``py_calls_per_action`` (``benchmarks/perf/run.py``) counts cProfile's
``call`` + ``c_call`` events, so a change that makes each call do less
work, or that moves work into fewer, longer calls, does not show there.
This counts the bytecode the interpreter executed (``sys.settrace`` with
``f_trace_opcodes``) and the Python frames it entered (a coroutine or
generator resumed counts again), over the batches the call count reads:
0, -1, .. on the workload's own seed.  It imports the workloads from
``benchmarks/perf`` and changes nothing there.

    python benchmarks/opcount.py                          # all three, seed 1
    python benchmarks/opcount.py --workload faults --seed 2
    python benchmarks/opcount.py --self-test --workload faults --cells 30

``--self-test`` counts each named workload (default: ``sim_large`` and
``faults``) in three fresh interpreters and exits 1 unless the three agree
exactly.  ``svc_closed`` serves over loopback TCP, so how often its event
loop wakes varies between runs and its counts wander a little, as its
call count does.  ``--cells K`` keeps the first K cells of ``faults``.
Counting all three workloads takes about 35 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "perf"), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402

RUNS = 3
SELF_TEST_WORKLOADS = ("sim_large", "faults")


class OpcodeCounter:
    """A ``sys.settrace`` hook: frames entered and opcodes executed."""

    def __init__(self) -> None:
        self.frames = 0
        self.opcodes = 0

    def enter(self, frame, event, arg):
        """The global hook: called once per frame entered."""
        self.frames += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.step

    def step(self, frame, event, arg):
        if event == "opcode":
            self.opcodes += 1
        return self.step


def count(name: str, seed: int, cells: int | None = None) -> dict:
    """Opcodes and frames per action over the profiled batches of one
    workload (set up and warmed as ``run.py`` does)."""
    w = WORKLOADS[name](seed)
    if cells is not None:
        if name != "faults":
            raise ValueError("--cells applies to the faults workload only")
        w.cells = w.cells[:cells]
        w.batch_size = len(w.cells)
    counter = OpcodeCounter()

    async def main():
        for index in range(w.profile_batches):
            sys.settrace(counter.enter)
            try:
                await w.batch(-index)
            finally:
                sys.settrace(None)
            w.check()

    w.run(main)
    actions = w.profile_batches * w.batch_size
    return {
        "workload": name, "seed": seed, "actions": actions, "failed": w.failed,
        "py_opcodes_per_action": counter.opcodes / actions,
        "py_frames_per_action": counter.frames / actions,
    }


def self_test(names, seed: int, cells: int | None) -> bool:
    """Count each workload in ``RUNS`` fresh interpreters; all must agree."""
    ok = True
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        if cells is not None:
            argv += ["--cells", str(cells)]
        runs = [
            json.loads(subprocess.run(
                argv, check=True, capture_output=True, text=True,
            ).stdout.splitlines()[-1])
            for _ in range(RUNS)
        ]
        same = all(run == runs[0] for run in runs)
        ok = ok and same and runs[0]["failed"] == 0
        print(json.dumps({**runs[0], "identical_runs": RUNS if same else 0}))
        if not same:
            for run in runs:
                print(f"  {run}", file=sys.stderr)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cells", type=int, help="the first K cells of faults")
    parser.add_argument(
        "--self-test", action="store_true",
        help=f"{RUNS} fresh runs per workload must count the same",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        names = args.workload or SELF_TEST_WORKLOADS
        return 0 if self_test(names, args.seed, args.cells) else 1
    for name in args.workload or WORKLOADS:
        print(json.dumps(count(name, args.seed, args.cells)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
