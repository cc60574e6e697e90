"""E29 — schedule exploration campaign: certified bounds and pooled walks.

Extends the PR-8 explorer bench (E22) with the walk pool, all through
the one entry point :func:`repro.explore.engine.explore_cell`:

1. **Certified bounds** — bounded-exhaustive DFS over every protocol
   variant's fault-free cell: N=3 (and the crash-tolerant cell at N=4) in
   smoke and campaign modes, N=4 in full mode.  A search that hits
   ``max_runs`` without exhausting
   **fails the bench loudly** (non-zero exit + a ``problems`` entry): a
   truncated certification certifies nothing and must never record as
   ``ok``.
2. **Delay-bounded fault cells, d=2** — CHESS-style two-deviation sweeps
   over the crash/partition cells (d=1 in smoke/budget modes).
3. **Random-walk throughput, one process then a pool** — the same walks
   with ``workers=1`` and with ``workers=usable_cpus()``, both measured
   in this run on this machine.  Gated: the two results are bit-identical
   and the in-process throughput clears an absolute sanity floor.  The
   pooled/in-process ratio is recorded with the usable-CPU count and is
   judged by nothing; below four usable CPUs the pooled row's verdict
   reads ``not-measurable``.

Results land in ``BENCH_explore.json``.  ``--smoke`` is the CI gate
(N=3, well under 90 s); ``--campaign --budget-s N`` runs the fullest
prefix of the campaign that fits a wall-clock budget (the CI
``explore-campaign`` job), checking the budget between cells and
recording what was skipped.  Any finding prints its minimized repro
command and, with ``--artifacts DIR``, dumps span traces for upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import machine, record_table  # noqa: E402

from repro.core.variants import VARIANTS  # noqa: E402
from repro.explore import explore_cell  # noqa: E402
from repro.explore.engine import export_schedule_trace  # noqa: E402
from repro.workloads.campaigns import parse_cell_id  # noqa: E402
from repro.workloads.parallel import usable_cpus  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_explore.json"


#: The variants whose DFS cell the ``--smoke`` gate certifies: cheapest and
#: densest.  Named, not sliced out of VARIANTS — a reorder of the registry
#: once made the gate silently certify cd in place of ct.
SMOKE_VARIANTS = ("base", "ct")


def dfs_cells(n: int, variants=VARIANTS) -> tuple[str, ...]:
    """Fault-free cells, one per protocol variant, at size ``n``."""
    return tuple(f"paper:{v}:none:n{n}p1q1:s0" for v in variants)


#: Certified beside the N=3 cells in smoke and campaign modes: the
#: crash-tolerant cell at N=4 drains in about a second now that its failure
#: detector arms one timer per member and interval.
N4_CERTIFIED = "paper:ct:none:n4p1q1:s0"


#: Fault cells for the delay-bounded sweep.  All four are exhaustible at
#: d=2 within the full-mode budget (measured: ct crash_participant 5.2k
#: runs, ct crash_resolver 3.3k, base partition 2.7k, ct partition the
#: heavyweight).
DELAY_CELLS = (
    "paper:ct:crash_participant:n3p1q1:s0",
    "paper:ct:crash_resolver:n3p1q1:s0",
    "paper:ct:partition:n3p1q1:s0",
    "paper:base:partition:n3p1q1:s0",
)

#: Throughput cell: the crash-tolerant variant has the densest schedule
#: space (heartbeats + ARQ timers), so it lower-bounds the others.
WALK_CELL = "paper:ct:none:n3p1q1:s0"

THROUGHPUT_FLOOR = 500.0  # schedules/min, absolute sanity floor

#: Per-search run budgets.  The N=4 trees measured serially: mc 736,
#: cd 6, ct 4.5k, cr 12.8k nodes — base is the heavyweight.  The budget
#: is a backstop against regressions exploding the tree, not a truncation
#: device: hitting it fails the bench.
MAX_RUNS = {3: 40_000, 4: 2_000_000}
DELAY_MAX_RUNS = {1: 5_000, 2: 200_000}


class BudgetExceeded(Exception):
    """Raised between cells when ``--budget-s`` is spent."""


def _budget_check(deadline: float | None, skipped: list[str], what: str):
    if deadline is not None and time.perf_counter() > deadline:
        skipped.append(what)
        raise BudgetExceeded(what)


def _report_findings(result, artifacts: Path | None) -> None:
    for finding in result.findings:
        print(f"FINDING: {finding.repro_command()}", file=sys.stderr)
        for violation in finding.violations:
            print(f"  {violation}", file=sys.stderr)
        if artifacts is not None:
            try:
                paths = export_schedule_trace(
                    result.cell, finding.minimized, artifacts
                )
                for path in paths:
                    print(f"  artifact -> {path}", file=sys.stderr)
            except Exception as exc:  # noqa: BLE001 — diagnostics only
                print(f"  artifact export failed: {exc}", file=sys.stderr)


def _check_certification(result, cell_id: str, problems: list[str],
                         artifacts: Path | None) -> str:
    """Common verdict logic; budget truncation is always loud."""
    verdict = "OK"
    if result.budget_exhausted:
        problems.append(
            f"{cell_id}: search hit max_runs without exhausting — "
            "the recorded bound certifies NOTHING at this budget"
        )
        verdict = "FAIL"
    elif not result.exhaustive:
        problems.append(f"{cell_id}: not exhaustive (window truncation)")
        verdict = "FAIL"
    if not result.ok:
        problems.append(f"{cell_id}: {len(result.findings)} finding(s)")
        _report_findings(result, artifacts)
        verdict = "FAIL"
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: N=3 DFS + walks",
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="budget mode: run the fullest campaign prefix that fits "
             "--budget-s, recording anything skipped",
    )
    parser.add_argument(
        "--budget-s", type=float, default=600.0,
        help="wall-clock budget for --campaign mode (default 600)",
    )
    parser.add_argument(
        "--walks", type=int, default=None,
        help="random-walk count (default: 200 smoke, 500 full)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="random-walk seed base"
    )
    parser.add_argument(
        "--workers", type=int, default=usable_cpus(),
        help="processes for the pooled walks (default: usable CPUs)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None, metavar="DIR",
        help="dump span-trace artifacts for every finding into DIR",
    )
    args = parser.parse_args(argv)
    walks = args.walks if args.walks is not None else (
        200 if (args.smoke or args.campaign) else 500
    )
    dfs_n = 3 if (args.smoke or args.campaign) else 4
    delay_bound = 1 if (args.smoke or args.campaign) else 2
    deadline = (
        time.perf_counter() + args.budget_s if args.campaign else None
    )

    started = time.perf_counter()
    problems: list[str] = []
    skipped: list[str] = []
    rows = []
    sections: dict[str, list[dict]] = {"dfs": [], "delay": [], "random": []}

    try:
        _run_campaign(
            args, walks, dfs_n, delay_bound, deadline,
            problems, skipped, rows, sections,
        )
    except BudgetExceeded as exc:
        print(f"budget exhausted before: {exc}", file=sys.stderr)

    elapsed = time.perf_counter() - started
    payload = {
        "schema": 2,
        "experiment": "E29",
        "generated_unix": round(time.time(), 3),
        "machine": machine(),
        "config": {
            "smoke": args.smoke, "campaign": args.campaign,
            "budget_s": args.budget_s if args.campaign else None,
            "walks": walks, "seed": args.seed, "workers": args.workers,
            "dfs_n": dfs_n, "delay_bound": delay_bound,
        },
        "wall_seconds": round(elapsed, 3),
        "throughput_floor_per_min": THROUGHPUT_FLOOR,
        "skipped_by_budget": skipped,
        "problems": problems,
        "ok": not problems,
        **sections,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    record_table(
        "E29",
        "schedule exploration campaign: certified bounds and pooled walks",
        (
            "mode", "cell", "runs", "pruned", "exhaustive",
            "digests", "findings", "sched/min", "verdict",
        ),
        rows,
        notes=(
            f"{elapsed:.1f}s total (smoke={args.smoke}, "
            f"campaign={args.campaign}, N={dfs_n}, d={delay_bound}, "
            f"walks={walks}, workers={args.workers} on {usable_cpus()} "
            f"usable CPUs); exhaustive=yes "
            f"certifies the windowed choice tree was drained under the "
            f"POR documented in EXPERIMENTS.md E22/E29; budget-truncated "
            f"searches fail the bench"
        ),
        persist=args.out == DEFAULT_OUT,
    )
    print(f"\nwrote {args.out}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _run_campaign(
    args, walks, dfs_n, delay_bound, deadline,
    problems, skipped, rows, sections,
) -> None:
    # -- certified DFS bounds --------------------------------------------------
    cells = dfs_cells(dfs_n, SMOKE_VARIANTS if args.smoke else VARIANTS)
    if dfs_n == 3:
        cells += (N4_CERTIFIED,)
    for cell_id in cells:
        n = parse_cell_id(cell_id).n
        _budget_check(deadline, skipped, f"dfs {cell_id}")
        result = explore_cell(cell_id, mode="dfs", max_runs=MAX_RUNS[n])
        sections["dfs"].append(result.to_payload())
        verdict = _check_certification(
            result, cell_id, problems, args.artifacts
        )
        rows.append((
            f"dfs(n{n})", cell_id, result.schedules_run, result.pruned,
            "yes" if result.exhaustive else "NO",
            result.distinct_digests, len(result.findings),
            f"{result.schedules_per_minute():.0f}", verdict,
        ))

    # -- delay-bounded fault cells --------------------------------------------
    if not args.smoke:
        for cell_id in DELAY_CELLS:
            _budget_check(deadline, skipped, f"delay {cell_id}")
            result = explore_cell(
                cell_id, mode="delay", bound=delay_bound,
                max_runs=DELAY_MAX_RUNS[delay_bound],
            )
            sections["delay"].append(result.to_payload())
            verdict = _check_certification(
                result, cell_id, problems, args.artifacts
            )
            rows.append((
                f"delay(d={delay_bound})", cell_id, result.schedules_run,
                result.pruned, "yes" if result.exhaustive else "NO",
                result.distinct_digests, len(result.findings),
                f"{result.schedules_per_minute():.0f}", verdict,
            ))

    # -- random-walk throughput: in process, then pooled -----------------------
    _budget_check(deadline, skipped, "random walks")
    serial, pooled = (
        explore_cell(
            WALK_CELL, mode="random", schedules=walks, seed=args.seed,
            workers=workers,
        )
        for workers in (1, args.workers)
    )
    throughput = serial.schedules_per_minute()
    pooled_throughput = pooled.schedules_per_minute()
    cpus = usable_cpus()
    identical = (
        pooled.digests == serial.digests
        and pooled.findings == serial.findings
        and pooled.schedules_run == serial.schedules_run
    )
    sections["random"].append(serial.to_payload())
    sections["random"].append({
        **pooled.to_payload(),
        "workers": args.workers,
        "usable_cpus": cpus,
        "identical_to_in_process": identical,
        "pooled_vs_in_process": round(pooled_throughput / throughput, 3),
    })
    walk_ok = serial.ok
    if throughput < THROUGHPUT_FLOOR:
        problems.append(
            f"random-walk throughput {throughput:.0f}/min "
            f"below the {THROUGHPUT_FLOOR:.0f}/min floor"
        )
        walk_ok = False
    if not identical:
        problems.append(
            f"{WALK_CELL}: walks on {args.workers} workers differ from "
            "the same walks in process"
        )
    if not serial.ok:
        problems.append(f"{WALK_CELL}: {len(serial.findings)} finding(s)")
        _report_findings(serial, args.artifacts)
    rows.append((
        "random(w=1)", WALK_CELL, serial.schedules_run, serial.pruned, "-",
        serial.distinct_digests, len(serial.findings), f"{throughput:.0f}",
        "OK" if walk_ok else "FAIL",
    ))
    if not identical:
        pooled_verdict = "FAIL"
    elif cpus < 4:  # ROADMAP item 2: no parallel verdict below four cores
        pooled_verdict = "not-measurable"
    else:
        pooled_verdict = "OK"
    rows.append((
        f"random(w={args.workers})", WALK_CELL, pooled.schedules_run,
        pooled.pruned, "-", pooled.distinct_digests, len(pooled.findings),
        f"{pooled_throughput:.0f}", pooled_verdict,
    ))


if __name__ == "__main__":
    raise SystemExit(main())
