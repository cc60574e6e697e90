"""Recovery smoke: kill a live WAL-writing process, then recover its log.

Two phases, both over real WAL bytes with ``fsync=True``:

**Process kill.**  A child process runs the crash-tolerant variant on the
wall-clock asyncio backend with a durable store per participant; each
participant opens a work transaction (write + prepare) early and the
resolution horizon is far away, so the child is guaranteed to be
mid-action when the parent SIGKILLs it.  The parent polls the victim's
log for the durable ``prepare`` record, kills the child, appends a torn
half-record (simulating an append the kill cut mid-write), and runs the
real :func:`repro.transactions.wal.recover` path — asserting the torn
tail is truncated, the incomplete transaction is found, and undo restores
the pre-action snapshot.

**In-process restart.**  The ``crash_restart_early`` and
``crash_restart_late`` scenarios on the asyncio backend — the full rejoin
protocol under real concurrency — asserting the returnee *rejoined with
the agreed handler* (early) or *confirmed its abort* (late), with its WAL
replay having undone the crash-cut work transaction.

On failure, the killed WAL and span traces land in ``--artifacts`` for CI
upload.  Exit 0 on success, 1 on any failed check::

    PYTHONPATH=src python benchmarks/recovery_smoke.py --artifacts recovery-artifacts
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Wall seconds per virtual unit.  Generous (4x the rt-conformance
#: default) so detector timeouts hold comfortably on noisy CI runners.
TIME_SCALE = 0.02
VICTIM = "O0003"


def run_child(wal_dir: str) -> None:
    """Child process body: be mid-action, durably, until killed."""
    from repro.core.variants import run_action
    from repro.net.latency import ConstantLatency
    from repro.rt.backend import asyncio_backend

    with asyncio_backend(time_scale=TIME_SCALE):
        # Work transactions open (write + prepare, fsynced) at t=1; the
        # raise is parked far beyond the kill window, so no abort record
        # ever settles them — the SIGKILL is the only ending.
        run_action(
            "ct", 3, 1, raise_at=900.0, work_at=1.0,
            latency=ConstantLatency(1.0), hb_interval=2.0, hb_timeout=12.0,
            durable_dir=wal_dir, wal_fsync=True, until=1000.0,
        )


def phase_process_kill(artifacts: Path) -> list[str]:
    """SIGKILL a live WAL writer; recover its log from the outside."""
    from repro.transactions.atomic_object import AtomicObject
    from repro.transactions.wal import recover, scan_wal

    problems: list[str] = []
    wal_dir = tempfile.mkdtemp(prefix="repro-recovery-smoke-")
    target = Path(wal_dir) / "O0000.wal"
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", wal_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if target.exists() and b'"t":"prepare"' in target.read_bytes():
                break
            if child.poll() is not None:
                stderr = (child.stderr.read() or b"").decode(errors="replace")
                return [
                    "child exited before opening its work transaction "
                    f"(rc={child.returncode}): {stderr[-500:]}"
                ]
            time.sleep(0.05)
        else:
            return ["timed out waiting for the child's prepare record"]
        # Kill mid-action: no shutdown hooks, no flush — pure crash.
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        # The kill can land between a write() and its newline; make the
        # torn-tail case certain rather than probabilistic.
        with open(target, "ab") as fh:
            fh.write(b'deadbeef {"t":"wri')
        scan = scan_wal(target)
        if not scan.torn:
            problems.append("killed WAL did not report a torn tail")
        # Durable object state as the crash left it: the work write had
        # already mutated it when the node died.
        obj = AtomicObject("st:O0000", {"progress": "O0000"})
        recovery, wal = recover(target, {"st:O0000": obj}, fsync=True)
        wal.close()
        if not recovery.incomplete:
            problems.append(
                "recovery found no incomplete transaction in the killed WAL"
            )
        if obj.snapshot() != {"progress": None}:
            problems.append(
                f"undo did not restore the snapshot: {obj.snapshot()}"
            )
        rescan = scan_wal(target)
        if rescan.torn:
            problems.append("recover() left the torn tail in place")
        if problems:
            artifacts.mkdir(parents=True, exist_ok=True)
            shutil.copy(target, artifacts / "killed.wal")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
        shutil.rmtree(wal_dir, ignore_errors=True)
    return problems


def phase_in_process_restart(artifacts: Path) -> list[str]:
    """The rejoin protocol end to end on the asyncio backend."""
    from repro.core.variants import run_action
    from repro.net.latency import ConstantLatency
    from repro.rt.backend import asyncio_backend

    problems: list[str] = []
    for label, restart_at, want in (
        ("early", 16.0, "rejoined"),
        ("late", 60.0, "confirmed-abort"),
    ):
        wal_dir = tempfile.mkdtemp(prefix=f"repro-recovery-{label}-")
        try:
            with asyncio_backend(time_scale=TIME_SCALE):
                result = run_action(
                    "ct", 4, 2, raise_at=10.0, latency=ConstantLatency(1.0),
                    hb_interval=2.0, hb_timeout=12.0, restart_at=restart_at,
                    durable_dir=wal_dir, wal_fsync=True, until=100.0,
                    crashes=[(VICTIM, 10.5)],
                )
            returnee = result.participants[VICTIM]
            cell_problems: list[str] = []
            if returnee.rejoin_outcome != want:
                cell_problems.append(
                    f"{label}: outcome {returnee.rejoin_outcome!r}, "
                    f"wanted {want!r}"
                )
            if want == "rejoined" and returnee.handled is None:
                cell_problems.append(f"{label}: rejoined but ran no handler")
            if not result.all_handled():
                cell_problems.append(f"{label}: a survivor never handled")
            store = result.stores[VICTIM]
            if not store.recovered_incomplete:
                cell_problems.append(
                    f"{label}: WAL replay undid no transactions"
                )
            obj = next(iter(store.objects.values()))
            if obj.snapshot() != {"progress": None}:
                cell_problems.append(
                    f"{label}: durable state not rolled back: {obj.snapshot()}"
                )
            if cell_problems:
                artifacts.mkdir(parents=True, exist_ok=True)
                (artifacts / f"spans_{label}.json").write_text(json.dumps(
                    result.runtime.spans.to_records(), indent=2,
                ))
                for wal_file in Path(wal_dir).glob("*.wal"):
                    shutil.copy(wal_file, artifacts / f"{label}-{wal_file.name}")
            problems.extend(cell_problems)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--child", metavar="WAL_DIR", default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--artifacts", type=Path, default=Path("recovery-artifacts"),
        help="directory for failure artifacts (WALs, span traces)",
    )
    args = parser.parse_args(argv)
    if args.child is not None:
        run_child(args.child)
        return 0

    started = time.perf_counter()
    problems = phase_process_kill(args.artifacts)
    print(
        f"process-kill phase: {'FAIL' if problems else 'ok'} "
        f"({time.perf_counter() - started:.1f}s)"
    )
    started = time.perf_counter()
    restart_problems = phase_in_process_restart(args.artifacts)
    print(
        f"in-process restart phase: {'FAIL' if restart_problems else 'ok'} "
        f"({time.perf_counter() - started:.1f}s)"
    )
    problems.extend(restart_problems)
    for problem in problems:
        print(f"RECOVERY SMOKE FAILURE: {problem}", file=sys.stderr)
    if problems:
        print(f"artifacts in {args.artifacts}/", file=sys.stderr)
        return 1
    print("recovery smoke ok: kill/replay + rejoin (early, late)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
