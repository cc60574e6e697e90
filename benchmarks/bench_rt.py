"""E23: real-concurrency backend — sim/asyncio conformance + wall-clock latency.

Three sections, all landing in ``BENCH_rt.json`` at the repo root:

1. **Conformance** — every protocol variant (base Section 4.2,
   crash-tolerant, multicast, centralised, CR baseline) run fault-free on
   the deterministic simkernel *and* on real asyncio timers
   (:mod:`repro.rt`); their oracle digests (classification, handler
   agreement, termination, exact Section 4.4 counts) must be identical.
2. **Fault cells** — drop and crash cells executed on the asyncio backend
   only: the runs must terminate with handler agreement (stalling only
   where the variant documents it).
3. **Latency** — real wall-clock resolution latency versus N for all five
   variants at the default time scale: how long the protocol actually
   takes when timers wait instead of jump.

The bench *fails* (exit 1) on any digest divergence or unhealthy fault
cell; on divergence both backends' causal span forests are exported under
``--trace-dir`` for diffing::

    PYTHONPATH=src python benchmarks/bench_rt.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_rt.py            # full sweep
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow plain `python benchmarks/...`
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import machine, record_table  # noqa: E402

from repro.rt import ProtocolHarness, conformance_cells, tcp_transport  # noqa: E402
from repro.rt.harness import cell_horizon, fault_cells  # noqa: E402
from repro.workloads.campaigns import CampaignCell, observe_cell  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_rt.json"


def measure_latency(harness: ProtocolHarness, cells, repeats: int) -> list[dict]:
    """Wall-clock seconds per cell on the asyncio backend (median of repeats)."""
    points = []
    for cell in cells:
        walls, sims = [], []
        for _ in range(repeats):
            run = harness.run_cell(cell, "asyncio")
            walls.append(run.wall_seconds)
            sims.append(run.sim_duration)
        points.append({
            "cell": cell.cell_id,
            "variant": cell.variant,
            "n": cell.n,
            "wall_seconds": round(statistics.median(walls), 4),
            "sim_duration": round(statistics.median(sims), 2),
        })
    return points


def measure_tcp(time_scale: float) -> dict:
    """One base cell with every delivery over a real localhost socket."""
    cell = CampaignCell("paper", "base", "none", 4, 2, 1, seed=0)
    started = time.perf_counter()
    with tcp_transport(time_scale=time_scale) as bridges:
        obs = observe_cell(cell, run_until=cell_horizon(cell))
    return {
        "cell": cell.cell_id,
        "wall_seconds": round(time.perf_counter() - started, 4),
        "frames_delivered": sum(b.frames_delivered for b in bridges),
        "finished": obs.finished,
        "measured": obs.measured,
        "expected": obs.expected,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time-scale", type=float, default=0.005)
    parser.add_argument("--repeats", type=int, default=None,
                        help="latency repeats per cell (default 3, smoke 1)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--trace-dir", type=Path,
                        default=REPO_ROOT / "benchmarks" / "results" / "rt_traces",
                        help="span-trace artifacts on divergence")
    args = parser.parse_args(argv)

    conf_ns = (2, 3) if args.smoke else (2, 3, 5)
    fault_ns = (3,) if args.smoke else (3, 5)
    latency_ns = (2, 3, 5) if args.smoke else (2, 3, 5, 8, 12)
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)

    harness = ProtocolHarness(time_scale=args.time_scale)
    asyncio_only = ProtocolHarness(
        backends=("asyncio",), time_scale=args.time_scale
    )
    started = time.perf_counter()

    conformance = harness.run(
        conformance_cells(ns=conf_ns, seed=args.seed), trace_dir=args.trace_dir
    )
    faults = asyncio_only.run(
        fault_cells(ns=fault_ns, seed=args.seed), trace_dir=args.trace_dir
    )
    latency = measure_latency(
        # One fault-free cell per (variant, N): the conformance matrix's shapes.
        asyncio_only, conformance_cells(latency_ns, seed=args.seed), repeats
    )
    tcp = measure_tcp(args.time_scale)
    elapsed = time.perf_counter() - started

    payload = {
        "schema": 1,
        "experiment": "E23",
        "generated_unix": round(time.time(), 3),
        "machine": {**machine(), "kernel": platform.release()},
        "config": {
            "smoke": args.smoke,
            "seed": args.seed,
            "time_scale": args.time_scale,
            "repeats": repeats,
        },
        "wall_seconds": round(elapsed, 3),
        "conformance": conformance.to_payload(),
        "faults": faults.to_payload(),
        "latency": latency,
        "tcp": tcp,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        (
            point["variant"], point["n"],
            f"{point['wall_seconds'] * 1000:.1f}",
            f"{point['sim_duration']:.0f}",
        )
        for point in latency
    ]
    tcp_ok = tcp["finished"] and tcp["measured"] == tcp["expected"]
    record_table(
        "E23",
        "real-concurrency backend: wall-clock resolution latency (asyncio)",
        ("variant", "N", "wall ms", "horizon t"),
        rows,
        notes=(
            f"conformance: {len(conformance.results)} cells, "
            f"{'all digests match' if conformance.ok else 'DIVERGENCE'}; "
            f"fault cells: {len(faults.results)}, "
            f"{'all healthy' if faults.ok else 'UNHEALTHY'}; "
            f"tcp: {tcp['frames_delivered']} frames, "
            f"count {'exact' if tcp_ok else 'MISMATCH'}; "
            f"time_scale={args.time_scale}, {elapsed:.1f}s total"
        ),
        persist=args.out == DEFAULT_OUT,
    )
    print(f"\nwrote {args.out}")

    ok = conformance.ok and faults.ok and tcp_ok
    if not ok:
        for result in conformance.failures() + faults.failures():
            print(f"FAILING CELL: {result.cell.cell_id} "
                  f"divergent={result.divergent_keys()}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
