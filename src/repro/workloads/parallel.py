"""One process-pool map for independent, seeded, deterministic work.

Sweep points, campaign cells and schedule replays are independent
simulations, so a pool of forked workers (one Python process per core
sidesteps the GIL) runs them concurrently and :func:`parallel_map` hands
the results back in input order — the same list a plain loop over ``fn``
produces.  The pool lives exactly as long as the call: forked inside it,
terminated and joined on every way out.  That costs one fork (tens of
milliseconds) per call and keeps this module free of state.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from functools import partial
from typing import Callable, Iterable, Optional


class ParallelMapError(RuntimeError):
    """A :func:`parallel_map` worker failed on one item.

    Attributes:
        item: the input item that failed.
        worker_traceback: the traceback formatted inside the worker process.
    """

    def __init__(self, item, worker_traceback: str) -> None:
        super().__init__(
            f"parallel map worker failed on item {item!r}\n"
            f"--- worker traceback ---\n{worker_traceback}"
        )
        self.item = item
        self.worker_traceback = worker_traceback


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def _call(fn: Callable, item):
    """``(True, fn(item))`` or ``(False, formatted_traceback)``.

    Errors are returned as data (not raised) so the parent can re-raise
    them with the failing item attached instead of an opaque pool traceback.
    """
    try:
        return True, fn(item)
    except Exception:  # noqa: BLE001 — reported verbatim to the parent
        return False, traceback.format_exc()


def _collect(items: list, outcomes: Iterable) -> list:
    results = []
    for item, (ok, value) in zip(items, outcomes):
        if not ok:
            raise ParallelMapError(item, value)
        results.append(value)
    return results


def parallel_map(
    fn: Callable, items: Iterable, workers: Optional[int] = None
) -> list:
    """``[fn(item) for item in items]``, spread over forked worker processes.

    ``fn`` must be an importable module-level callable and items and
    results picklable (they cross the process boundary pickled even under
    fork).  ``workers`` defaults to :func:`usable_cpus`.  With fewer than
    two workers or items, or on a platform without ``fork``, the map runs
    in this process — same results, same errors.  An exception in ``fn``
    surfaces as :class:`ParallelMapError` carrying the failing item and
    the worker's traceback; the first one in input order wins and the
    rest of the work is abandoned.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    workers = min(usable_cpus() if workers is None else workers, len(items))
    call = partial(_call, fn)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return _collect(items, map(call, items))
    pool = multiprocessing.get_context("fork").Pool(processes=workers)
    try:
        chunksize = -(-len(items) // (4 * workers))
        return _collect(items, pool.imap(call, items, chunksize))
    finally:
        # Also the KeyboardInterrupt and error paths: undrained chunks must
        # not keep workers burning CPU on results nobody will read.
        pool.terminate()
        pool.join()
