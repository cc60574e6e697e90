"""Paired A/B wall time of two trees of this repo, timed in two live workers.

    python benchmarks/ab.py --base HEAD~1                   # working tree vs HEAD~1
    python benchmarks/ab.py --base HEAD~1 --pairs 40 --workloads sim_large
    python benchmarks/ab.py --self-test aa --pairs 12       # must read unresolved
    python benchmarks/ab.py --self-test slow --pairs 12     # must read resolved

The base revision's ``src/`` is checked out with ``git archive`` into a
temporary directory; the change is this working tree.  Two worker processes stay alive for the whole
comparison, one per tree, each importing ``repro`` from its tree.  A pair
asks both workers to time one in-process action of a workload, on the same
inputs, one after the other; the order swaps on every pair, so neither tree
always runs second.  The actions:

* ``sim_large``: one ``general_case(256, 128, 64)`` run at ``COUNTS``;
* ``faults``: one ``run_cell`` pass over ``default_matrix(seed=0)``;
* ``svc_closed``: one batch of 500 ``execute_request`` calls, the service
  benchmark's sizes and variants (no sockets).

A pair's ratio is change time / base time.  Per workload the report gives
the median ratio, its quartiles and a seeded percentile-bootstrap
interval of that median at the sign test's level (99 %), how many pairs
the change won, and the exact two-sided sign-test p over the pairs that
were not ties; a row is *resolved* when p < 0.01.  The interval is read
beside the verdict, not as one: over a few pairs a percentile bootstrap
of the median leaves out the true ratio more often than its level says.
Self-tests: ``aa`` compares this tree with itself and passes when every
row reads unresolved; ``slow`` plants a +10 %
slowdown in the change's worker (a busy loop after each action, inside its
timing) and passes when every row reads resolved and slower.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim_large", "faults", "svc_closed")
#: A row is resolved when its sign-test p is below this.
ALPHA = 0.01
#: The planted slowdown of the ``slow`` self-test.
PLANTED = 0.10
#: Every pair's inputs derive from this seed, and so do the bootstrap's draws.
SEED = 1
#: Bootstrap resamples behind a row's interval of the median ratio.
RESAMPLES = 2000


# -- the worker ----------------------------------------------------------------


#: The service benchmark's batch: 125 sizes (the quantiles of loadgen's
#: ``heavy`` mix) x 4 variants, p and q drawn by ``sample_request``'s rules.
SVC_SIZES = [
    min(32, max(2, 1 + int((1 - (i + 0.5) / 125) ** (-1 / 1.6))))
    for i in range(125)
]
SVC_VARIANTS = ("base", "ct", "mc", "cd")


def svc_requests(seed: int) -> list:
    from repro.service.protocol import ActionRequest

    rng = random.Random(seed)
    requests = []
    for variant in SVC_VARIANTS:
        for n in SVC_SIZES:
            p = rng.randint(1, max(1, (n + 1) // 2))
            q = 0 if variant == "cd" else min(n - p, rng.randint(0, 2))
            requests.append(ActionRequest(
                id=len(requests), variant=variant, n=n, p=p, q=q,
                seed=rng.randrange(1 << 30),
            ))
    rng.shuffle(requests)
    return requests


def action(workload: str, seed: int):
    """The workload's action on ``seed``, as a callable (inputs made)."""
    if workload == "sim_large":
        from repro.simkernel.trace import TraceLevel
        from repro.workloads.generator import general_case

        scenario = general_case(256, 128, 64, seed=seed, trace_level=TraceLevel.COUNTS)
        return scenario.run
    if workload == "faults":
        from repro.workloads.campaigns import default_matrix, run_cell

        cells = default_matrix(seed=0)
        return lambda: [run_cell(cell) for cell in cells]
    if workload == "svc_closed":
        from repro.service.protocol import execute_request

        requests = svc_requests(seed)
        return lambda: [execute_request(request) for request in requests]
    raise ValueError(f"unknown workload {workload!r}")


def serve(busy: float) -> None:
    """Worker loop: one ``<workload> <seed>`` per line in, seconds out."""
    print("ready", flush=True)
    for line in sys.stdin:
        workload, seed = line.split()
        run = action(workload, int(seed))
        gc.collect()
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        if busy:
            deadline = start + elapsed * (1 + busy)
            while time.perf_counter() < deadline:
                pass
            elapsed = time.perf_counter() - start
        del result
        print(repr(elapsed), flush=True)


# -- the controller -----------------------------------------------------------


class Worker:
    """One live worker process importing ``repro`` from ``tree``."""

    def __init__(self, tree: Path, busy: float = 0.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
        command = [sys.executable, str(Path(__file__).resolve()), "--worker"]
        if busy:
            command += ["--busy", str(busy)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=tree,
        )
        if self.process.stdout.readline().strip() != "ready":
            raise RuntimeError(f"worker on {tree} did not start")

    def time(self, workload: str, seed: int) -> float:
        self.process.stdin.write(f"{workload} {seed}\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker died on {workload} seed {seed}")
        return float(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)


def archive(revision: str, into: Path) -> Path:
    """``src/`` of ``revision`` extracted under ``into``."""
    data = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", revision, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def median_interval(ratios: list[float]) -> tuple[float, float]:
    """Percentile-bootstrap ``1 - ALPHA`` interval of the median of
    ``ratios``, drawn from a ``SEED``-seeded generator, so a report is
    reproducible."""
    rng = random.Random(SEED)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(RESAMPLES)
    )
    tail = round(ALPHA / 2 * RESAMPLES)
    return medians[tail], medians[RESAMPLES - tail - 1]


def summarize(workload: str, ratios: list[float]) -> dict:
    wins = sum(ratio < 1 for ratio in ratios)
    losses = sum(ratio > 1 for ratio in ratios)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    low, high = median_interval(ratios)
    p = sign_test_p(wins, losses)
    return {
        "workload": workload, "pairs": len(ratios), "median": median,
        "q1": q1, "q3": q3, "ci_low": low, "ci_high": high, "wins": wins,
        "p": p, "resolved": p < ALPHA,
    }


def compare(base: Worker, change: Worker, workloads, pairs: int) -> list[dict]:
    rows = []
    for workload in workloads:
        for worker in (base, change):
            worker.time(workload, SEED)  # warm-up: imports, caches
        ratios = []
        for index in range(pairs):
            run_seed = SEED + 1 + index
            if index % 2:
                change_s = change.time(workload, run_seed)
                base_s = base.time(workload, run_seed)
            else:
                base_s = base.time(workload, run_seed)
                change_s = change.time(workload, run_seed)
            ratios.append(change_s / base_s)
        rows.append(summarize(workload, ratios))
        print(render([rows[-1]], header=not rows[:-1]), flush=True)
    return rows


def render(rows: list[dict], header: bool = True) -> str:
    lines = [
        "| workload | pairs | median ratio | quartiles | "
        f"{100 * (1 - ALPHA):.0f} % interval of the median | change faster | sign-test p | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ] if header else []
    for row in rows:
        verdict = "resolved" if row["resolved"] else "unresolved"
        lines.append(
            f"| {row['workload']} | {row['pairs']} | {row['median']:.3f} | "
            f"{row['q1']:.3f}–{row['q3']:.3f} | {row['ci_low']:.3f}–{row['ci_high']:.3f} | "
            f"{row['wins']}/{row['pairs']} | {row['p']:.2g} | {verdict} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--self-test", choices=("aa", "slow"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--busy", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve(args.busy)
        return 0
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(workloads) - set(WORKLOADS)
    if unknown or args.pairs < 2:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs >= 2")
    if args.self_test is None and args.base is None:
        parser.error("--base is required unless --self-test is given")
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        if args.self_test:
            base_tree = change_tree = REPO_ROOT
        else:
            base_tree = archive(args.base, Path(scratch) / "base")
            change_tree = REPO_ROOT
        busy = PLANTED if args.self_test == "slow" else 0.0
        base, change = Worker(base_tree), Worker(change_tree, busy)
        try:
            rows = compare(base, change, workloads, args.pairs)
        finally:
            base.close()
            change.close()
    if args.self_test == "aa":
        failed = [row["workload"] for row in rows if row["resolved"]]
        print(f"A/A self-test: {'FAIL, resolved: ' + ', '.join(failed) if failed else 'ok'}")
        return 1 if failed else 0
    if args.self_test == "slow":
        failed = [
            row["workload"] for row in rows
            if not (row["resolved"] and row["median"] > 1)
        ]
        print(f"planted-slowdown self-test: {'FAIL: ' + ', '.join(failed) if failed else 'ok'}")
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
