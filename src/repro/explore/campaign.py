"""Adversarial exploration campaigns and pinned-regression emission.

The explorer's output wants to be *cumulative*: a counterexample found
once — by the nightly sweep, by a mutation-survivor hunt, by a one-off
deep search — should keep guarding the tree forever.  This module closes
that loop:

* :func:`default_roster` names the cells worth searching adversarially;
  a campaign is ``[explore_cell(cell) for cell in roster]``;
* :func:`pin_regression` turns a :class:`~repro.explore.engine.Finding`
  into a pytest module under ``tests/regressions/`` following the repo's
  pinned-cell convention (module-level ``CELL`` and ``MINIMIZED``
  constants, replay + neighbourhood assertions) — the same shape the
  determinism harness scans for;
* :func:`hunt_schedule` is the mutation-feedback half: given a shadow
  source tree with a survivor mutant applied, it searches for a schedule
  that distinguishes mutant from pristine — a fresh detection problem for
  the mutation suite and, ddmin-shrunk, a candidate pinned regression.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.variants import VARIANTS
from repro.explore.engine import ExploreResult, Finding

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("_", text.lower()).strip("_")


#: Default adversarial roster: every protocol variant's clean cell plus
#: the sabotage cells (which must *stay* caught under every interleaving)
#: and the tractable fault cells.
def default_roster(n: int = 3, seed: int = 0) -> list[str]:
    cells = [f"paper:{variant}:none:n{n}p1q1:s{seed}" for variant in VARIANTS]
    cells += [
        f"paper:base:none:n{n}p1q1:s{seed}:sab-{kind}"
        for kind in ("disagree", "double", "count")
    ]
    cells += [
        f"paper:ct:crash_participant:n{n}p1q1:s{seed}",
        f"paper:ct:crash_resolver:n{n}p1q1:s{seed}",
    ]
    return cells


# -- pinned regressions --------------------------------------------------------------

_PIN_TEMPLATE = '''"""Pinned explorer counterexample: {title}.

Auto-emitted by ``repro.explore.campaign.pin_regression`` from a finding
of the adversarial exploration campaign ({origin}).  At pin time the
schedule below produced::

    classification: {classification}
    violations:     {violations}

against a FIFO baseline of ``{baseline_classification}``.  Once the
defect is fixed this module keeps guarding the tree: the schedule must
replay to the FIFO baseline digest bit-for-bit, forever.

Repro:

    {repro}
"""

from repro.explore import run_digest

CELL = "{cell}"

#: The ddmin-minimized counterexample schedule.
MINIMIZED = "{minimized}"


def test_minimized_counterexample_schedule_is_green():
    baseline = run_digest(CELL)
    outcome = run_digest(CELL, MINIMIZED)
    assert outcome.classification == baseline.classification, (
        outcome.violations
    )
    assert outcome.digest == baseline.digest


def test_replay_is_deterministic():
    first = run_digest(CELL, MINIMIZED)
    second = run_digest(CELL, MINIMIZED)
    assert first.trace_hash == second.trace_hash
    assert first.digest == second.digest
'''


def pin_regression(
    finding: Finding,
    out_dir,
    origin: str = "exploration campaign",
    name: Optional[str] = None,
) -> Path:
    """Write a pinned-regression pytest module for ``finding``.

    The emitted module follows the repo convention (module-level ``CELL``
    / ``MINIMIZED``, replay assertions) so the determinism harness and
    the CI regression job pick it up with no registration step.  Returns
    the written path; an existing file with the same name is left
    untouched (pins are append-only).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = name or f"pinned_{_slug(finding.cell_id)}_{_slug(finding.minimized)}"
    path = out / f"test_{_slug(stem)}.py"
    if path.exists():
        return path
    body = _PIN_TEMPLATE.format(
        title=f"{finding.cell_id} under {finding.minimized}",
        origin=origin,
        classification=finding.classification,
        violations=", ".join(finding.violations) or "(digest divergence)",
        baseline_classification="the same cell under FIFO",
        repro=finding.repro_command(),
        cell=finding.cell_id,
        minimized=finding.minimized,
    )
    path.write_text(body)
    return path


def pin_campaign_findings(
    results: Sequence[ExploreResult],
    out_dir,
    origin: str = "exploration campaign",
) -> list[Path]:
    """Pin every finding of a campaign; returns the written paths."""
    written = []
    for result in results:
        for finding in result.findings:
            written.append(pin_regression(finding, out_dir, origin=origin))
    return written


# -- mutation feedback ---------------------------------------------------------------

_HUNT_SNIPPET = """
import json, sys
from repro.explore.engine import explore_cell

result = explore_cell(
    {cell!r}, mode={mode!r}, schedules={schedules}, seed={seed},
    bound={bound}, max_runs={max_runs},
)
print(json.dumps({{
    "findings": [f.to_payload() for f in result.findings],
    "baseline_classification": result.baseline.classification,
    "baseline_digest": repr(result.baseline.digest),
    "schedules_run": result.schedules_run,
    "exhaustive": result.exhaustive,
}}))
"""


def hunt_schedule(
    shadow_src: Path,
    cell: str,
    mode: str = "delay",
    bound: int = 2,
    schedules: int = 200,
    seed: int = 0,
    max_runs: int = 3000,
    timeout: float = 600.0,
) -> dict:
    """Search a *mutated* tree for a schedule distinguishing it from FIFO.

    Runs the serial explorer inside a subprocess whose ``PYTHONPATH``
    points at ``shadow_src`` (a copy of ``src/`` with one mutant applied,
    as built by ``benchmarks/mutation_smoke.py``).  Any finding is a
    schedule under which the mutant diverges *within its own tree* — an
    order-sensitivity the mutant introduced.  Each finding's minimized
    schedule is then a fresh, targeted detection problem: replayed on the
    pristine tree it must match the pristine FIFO digest, so the suite
    acquires a new kill vector for this mutant class.

    Returns the subprocess's JSON payload plus ``ok``/``error`` keys.
    """
    code = _HUNT_SNIPPET.format(
        cell=cell, mode=mode, schedules=schedules, seed=seed, bound=bound,
        max_runs=max_runs,
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=timeout,
            env={"PYTHONPATH": str(shadow_src), "PATH": "/usr/bin:/bin"},
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timeout", "findings": []}
    if proc.returncode != 0:
        # A mutant that crashes the explorer outright is detected by the
        # ordinary digest problems; the hunt reports it and moves on.
        return {
            "ok": False,
            "error": proc.stderr.strip()[-2000:],
            "findings": [],
        }
    import json

    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    payload["ok"] = True
    payload["error"] = None
    return payload
