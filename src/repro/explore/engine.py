"""The exploration engine: DFS, random walks, delay-bounded search.

All three drivers execute *whole runs*: the simkernel is deterministic
given the choice vector, so re-running a prefix reproduces it exactly
(stateless model checking — no snapshot/restore needed).  A "run" is one
campaign cell executed under a :class:`ScheduleController`, observed by
the PR-2 campaign observers and judged by the shared invariant oracles
plus the order-invariance oracle: *every* interleaving of a cell must
produce the FIFO baseline's digest (resolved-exception map, classification
and — fault-free — the exact message count).

DFS reductions (mode ``dfs``):

* **Sleep sets** (Godefroid): after exploring branch ``c`` at a node, a
  sibling branch's subtree need not re-explore interleavings that start
  with ``c`` again; ``c`` "sleeps" until a dependent event executes.  A
  node whose every eligible candidate sleeps is redundant and the run is
  pruned.
* **Canonical-history pruning**: each executed prefix is folded into a
  Foata-normal-form hash over the label-derived dependence relation
  (:mod:`repro.explore.independence`).  Equal hash ⇒ the prefixes are
  permutations of one another through independent swaps ⇒ (determinism)
  the reached states are oracle-equivalent, so a revisited state's
  subtree is skipped — *unless* it is revisited with a smaller sleep set
  than before (the classic sleep-set/state-caching interaction: a larger
  explored-from sleep set covers fewer continuations, so we only prune
  when a previous visit's sleep set was a subset of the current one).

Both reductions can be disabled (``por=False``) — the cross-validation
tests compare the reduced and unreduced digest sets on tiny shapes.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.explore.controller import PruneRun, ScheduleController
from repro.explore.independence import EventMeta, event_meta, independent
from repro.explore.schedule import ScheduleSpec
from repro.explore.shrink import ddmin
from repro.net.message import reset_msg_ids
from repro.simkernel.scheduler import scheduling_policy
from repro.workloads.campaigns import (
    BAD,
    RAISE_AT,
    CampaignCell,
    classify_observation,
    observe_cell,
    parse_cell_id,
)
from repro.workloads.parallel import parallel_map

#: Choice points are only opened inside this virtual-time window: before
#: it the system is quiescent start-up chatter (heartbeats, which commute;
#: see the independence module), after it resolution has long settled.
#: The window is part of every certified bound reported by the explorer.
DEFAULT_WINDOW = (RAISE_AT - 0.5, RAISE_AT + 60.0)


# -- single runs -------------------------------------------------------------------


@dataclass(frozen=True)
class RunOutcome:
    """Oracle-visible result of one scheduled run (picklable)."""

    cell_id: str
    schedule: str
    classification: str
    violations: tuple[str, ...]
    #: (classification, sorted handled map, fault-free message count) —
    #: the order-invariance oracle compares this across interleavings.
    digest: tuple
    choice_points: int
    truncated_points: int
    #: sha256 of the full trace log — bit-identical replay check.
    trace_hash: str

    @property
    def bad(self) -> bool:
        return self.classification in BAD


def _digest(cell: CampaignCell, classification: str, obs) -> tuple:
    handled = tuple(sorted(obs.handled.items()))
    measured = obs.measured if cell.fault == "none" else None
    return (classification, handled, measured)


def _trace_hash(runtime) -> str:
    if runtime is None:
        return ""
    return hashlib.sha256(runtime.trace.dump().encode()).hexdigest()[:16]


def _run(
    cell: CampaignCell,
    spec: Optional[ScheduleSpec] = None,
    window: Optional[tuple[float, float]] = DEFAULT_WINDOW,
    max_choice_points: Optional[int] = None,
    on_choice=None,
    on_event=None,
):
    """Execute one cell under a controller; returns (outcome, controller, runtime)."""
    controller = ScheduleController(
        spec, window=window, max_choice_points=max_choice_points,
        on_choice=on_choice, on_event=on_event,
    )
    reset_msg_ids()  # per-run ids => bit-identical traces on replay
    with scheduling_policy(controller):
        obs = observe_cell(cell)
    classification, violations = classify_observation(cell, obs)
    outcome = RunOutcome(
        cell_id=cell.cell_id,
        schedule=(spec or ScheduleSpec.fifo()).encode(),
        classification=classification,
        violations=violations,
        digest=_digest(cell, classification, obs),
        choice_points=controller.pos,
        truncated_points=controller.truncated_points,
        trace_hash=_trace_hash(obs.runtime),
    )
    return outcome, controller, obs.runtime


def run_digest(
    cell: Union[CampaignCell, str],
    spec: Union[ScheduleSpec, str, None] = None,
    window: Optional[tuple[float, float]] = DEFAULT_WINDOW,
    max_choice_points: Optional[int] = None,
) -> RunOutcome:
    """Run one cell under one schedule and return its :class:`RunOutcome`."""
    if isinstance(cell, str):
        cell = parse_cell_id(cell)
    if isinstance(spec, str):
        spec = ScheduleSpec.parse(spec)
    outcome, _, _ = _run(
        cell, spec, window=window, max_choice_points=max_choice_points
    )
    return outcome


def replay_cell(item: tuple) -> RunOutcome:
    """``(cell_id, schedule string[, window, max_choice_points]) ->
    RunOutcome`` — :func:`run_digest` as the picklable one-argument
    function :func:`repro.workloads.parallel.parallel_map` fans out."""
    return run_digest(*item)


# -- DFS with sleep sets and canonical-history pruning ------------------------------


class UnsoundReduction(RuntimeError):
    """A handler spawned a same-instant event after a group collapse.

    The pairwise-independent-group collapse assumes no handler schedules
    new work at the *current* ``(time, priority)`` (audited true for the
    paper-family protocols — all delays are strictly positive).  The DFS
    guards the assumption at runtime; if it ever breaks, the whole DFS is
    restarted with the collapse disabled instead of silently missing
    interleavings.
    """


@dataclass
class _Frame:
    """One node on the current DFS path."""

    chosen: int
    tried: set = field(default_factory=set)
    eligible: tuple[int, ...] = ()
    entry_asleep: frozenset = frozenset()
    #: True for a pairwise-independent group taken without branching —
    #: replays must re-arm the same-instant spawn guard for it.
    collapsed: bool = False


def _pairwise_independent(metas: Sequence[EventMeta]) -> bool:
    for i in range(len(metas)):
        for j in range(i + 1, len(metas)):
            if not independent(metas[i], metas[j]):
                return False
    return True


class _DfsDriver:
    """Per-cell DFS state machine fed by the controller hooks."""

    def __init__(self, por: bool = True, collapse: bool = True) -> None:
        self.por = por
        self.collapse = collapse and por
        self.frames: list[_Frame] = []
        #: canonical-history hash -> sleep-label-sets it was explored with.
        self.visited: dict[int, list[frozenset]] = {}
        self.pruned_sleep = 0
        self.pruned_state = 0
        self.max_depth_seen = 0
        self.collapsed_groups = 0

    def begin_run(self) -> None:
        self.depth = 0
        self.sleep: list[EventMeta] = []
        self._last_level: dict[str, int] = {}
        self._label_counts: dict[str, int] = {}
        self._floor = 0
        self._max_level = 0
        self._hash = 0
        # Spawn guard for the group collapse: the not-yet-executed label
        # counts of the last choice group, keyed by its instant.
        self._instant: Optional[tuple[float, int]] = None
        self._instant_rest: dict[str, int] = {}
        self._instant_shortcut = False

    # -- controller hooks ------------------------------------------------------

    def on_event(self, meta: EventMeta, time: float, priority: int) -> None:
        if self._instant == (time, priority):
            rest = self._instant_rest.get(meta.label, 0)
            if rest > 0:
                self._instant_rest[meta.label] = rest - 1
            elif self._instant_shortcut:
                raise UnsoundReduction(
                    f"event {meta.label!r} joined instant "
                    f"{self._instant} after a collapsed choice group"
                )
        if self.sleep:
            self.sleep = [m for m in self.sleep if independent(m, meta)]
        label = meta.label
        occurrence = self._label_counts.get(label, 0)
        self._label_counts[label] = occurrence + 1
        touched = meta.touched
        if touched is None:
            # Unknown footprint: dependent with everything — a fence in
            # the Foata level structure.
            level = self._max_level + 1
            self._floor = level
        else:
            base = self._floor
            for obj in touched:
                known = self._last_level.get(obj, 0)
                if known > base:
                    base = known
            level = base + 1
            for obj in touched:
                self._last_level[obj] = level
        if level > self._max_level:
            self._max_level = level
        self._hash ^= hash((level, label, occurrence))

    def on_choice(
        self,
        pos: int,
        metas: list[EventMeta],
        eligible: list[int],
        time: float,
        priority: int,
    ) -> int:
        depth = self.depth
        self.depth += 1
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        key = (time, priority)
        if self._instant == key:
            if self._instant_shortcut:
                for meta in metas:
                    if self._instant_rest.get(meta.label, 0) <= 0:
                        raise UnsoundReduction(
                            f"event {meta.label!r} joined instant {key} "
                            "after a collapsed choice group"
                        )
        else:
            self._instant = key
            self._instant_shortcut = False
        rest: dict[str, int] = {}
        for meta in metas:
            rest[meta.label] = rest.get(meta.label, 0) + 1
        self._instant_rest = rest
        if depth < len(self.frames):
            # Prescribed prefix: replay the branch, re-deriving the child
            # sleep set from previously explored siblings.
            frame = self.frames[depth]
            if frame.collapsed:
                self._instant_shortcut = True
            chosen = frame.chosen
            chosen_meta = metas[chosen]
            merged = self.sleep + [
                metas[i] for i in frame.tried if i != chosen
            ]
            self.sleep = [m for m in merged if independent(m, chosen_meta)]
            return chosen
        # Frontier node.
        sleep_labels = frozenset(m.label for m in self.sleep)
        if self.por:
            stored = self.visited.get(self._hash)
            if stored is not None and any(
                previous <= sleep_labels for previous in stored
            ):
                self.pruned_state += 1
                raise PruneRun()
            if stored is None:
                self.visited[self._hash] = [sleep_labels]
            else:
                stored[:] = [s for s in stored if not (sleep_labels <= s)]
                stored.append(sleep_labels)
            asleep = frozenset(
                i for i in eligible if metas[i].label in sleep_labels
            )
        else:
            asleep = frozenset()
        candidates = [i for i in eligible if i not in asleep]
        if not candidates:
            self.pruned_sleep += 1
            raise PruneRun()
        # Group collapse: when every pair of events in the group is
        # independent, all linearizations form a single Mazurkiewicz
        # trace — provided no handler injects a *new* same-instant event
        # (which could be dependent with a deferred member).  That premise
        # is audited for the paper-family protocols (no zero-delay
        # scheduling from handlers) and enforced at runtime by the spawn
        # guard; violation restarts the DFS without the collapse.
        if (
            self.collapse
            and len(metas) > 1
            and not any(m.label in sleep_labels for m in metas)
            and _pairwise_independent(metas)
        ):
            chosen = candidates[0]
            self.collapsed_groups += 1
            self._instant_shortcut = True
            self.frames.append(
                _Frame(chosen, {chosen}, (), frozenset(), collapsed=True)
            )
            chosen_meta = metas[chosen]
            self.sleep = [
                m for m in self.sleep if independent(m, chosen_meta)
            ]
            return chosen
        # Ample-set reduction: a *commuting* event (heartbeat delivery —
        # refreshes ``last_seen`` and spawns nothing) commutes with every
        # other event, so running it first vs. later in the same instant
        # yields trace-equivalent executions.  Branch only over the
        # non-commuting candidates; if all candidates commute, take FIFO
        # without opening a backtrackable branch at all.  This collapses
        # the heartbeat chatter that otherwise dominates the tree.
        branchable = tuple(
            i for i in candidates if not metas[i].commuting
        )
        chosen = branchable[0] if branchable else candidates[0]
        self.frames.append(_Frame(chosen, {chosen}, branchable, asleep))
        chosen_meta = metas[chosen]
        self.sleep = [m for m in self.sleep if independent(m, chosen_meta)]
        return chosen

    # -- search control --------------------------------------------------------

    def backtrack(self) -> bool:
        """Advance the deepest frame to its next unexplored branch."""
        while self.frames:
            frame = self.frames[-1]
            untried = next(
                (
                    i
                    for i in frame.eligible
                    if i not in frame.tried and i not in frame.entry_asleep
                ),
                None,
            )
            if untried is None:
                self.frames.pop()
                continue
            frame.chosen = untried
            frame.tried.add(untried)
            return True
        return False


# -- findings ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One confirmed order-sensitivity, minimized and reproducible."""

    cell_id: str
    schedule: str
    minimized: str
    classification: str
    violations: tuple[str, ...]
    digest: tuple
    baseline_digest: tuple
    occurrences: int = 1

    def repro_command(self) -> str:
        return (
            "PYTHONPATH=src python -m repro explore "
            f"--cell '{self.cell_id}' --schedule '{self.minimized}'"
        )

    def to_payload(self) -> dict:
        return {
            "cell": self.cell_id,
            "schedule": self.schedule,
            "minimized": self.minimized,
            "classification": self.classification,
            "violations": list(self.violations),
            "digest": repr(self.digest),
            "baseline_digest": repr(self.baseline_digest),
            "occurrences": self.occurrences,
            "repro": self.repro_command(),
        }


def _diverges(outcome: RunOutcome, baseline: RunOutcome) -> bool:
    return outcome.bad or outcome.digest != baseline.digest


def _minimise(
    cell: CampaignCell,
    window,
    baseline: RunOutcome,
    deviations: Sequence[tuple[int, int]],
    budget: int = 150,
) -> ScheduleSpec:
    """ddmin the deviation set down to a minimal failing schedule."""

    def failing(subset) -> bool:
        try:
            outcome, _, _ = _run(
                cell, ScheduleSpec.from_choices(subset), window=window
            )
        except Exception:  # noqa: BLE001 - a crashing subset still "fails"
            return True
        return _diverges(outcome, baseline)

    minimal = ddmin(list(deviations), failing, budget=budget)
    return ScheduleSpec.from_choices(minimal)


# -- exploration result -------------------------------------------------------------


@dataclass
class ExploreResult:
    """Outcome of exploring one cell's schedule space."""

    cell: CampaignCell
    mode: str
    window: Optional[tuple[float, float]]
    baseline: RunOutcome
    schedules_run: int = 0
    pruned: int = 0
    distinct_digests: int = 1
    #: Every distinct run digest observed — with ``por=False`` vs
    #: ``por=True`` on the same cell these sets must coincide, which is
    #: the testable statement of reduction soundness.
    digests: frozenset = frozenset()
    findings: list[Finding] = field(default_factory=list)
    #: True when the DFS drained the whole (windowed) choice tree within
    #: its budgets — the certified-bound claim for clean variants.
    exhaustive: bool = False
    #: True when the search stopped because ``max_runs`` bit — distinct
    #: from window truncation, and the loud "this bound certified
    #: nothing" signal benchmarks must not bury in an ``ok`` run.
    budget_exhausted: bool = False
    elapsed_s: float = 0.0
    bounds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.baseline.bad

    def schedules_per_minute(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return 60.0 * (self.schedules_run + self.pruned) / self.elapsed_s

    def to_payload(self) -> dict:
        return {
            "cell": self.cell.cell_id,
            "mode": self.mode,
            "window": list(self.window) if self.window else None,
            "ok": self.ok,
            "baseline_classification": self.baseline.classification,
            "baseline_digest": repr(self.baseline.digest),
            "schedules_run": self.schedules_run,
            "pruned": self.pruned,
            "distinct_digests": self.distinct_digests,
            "exhaustive": self.exhaustive,
            "budget_exhausted": self.budget_exhausted,
            "elapsed_s": round(self.elapsed_s, 3),
            "schedules_per_minute": round(self.schedules_per_minute(), 1),
            "bounds": self.bounds,
            "findings": [finding.to_payload() for finding in self.findings],
        }


def _record_finding(
    findings: dict,
    cell: CampaignCell,
    window,
    baseline: RunOutcome,
    outcome: RunOutcome,
    controller: ScheduleController,
    minimize: bool,
    shrink_budget: int,
) -> None:
    key = outcome.digest
    if key in findings:
        existing = findings[key]
        findings[key] = Finding(
            **{**existing.__dict__, "occurrences": existing.occurrences + 1}
        )
        return
    recorded = controller.recorded_spec()
    minimized = recorded
    if minimize and recorded.choices:
        minimized = _minimise(
            cell, window, baseline, recorded.choices, budget=shrink_budget
        )
    findings[key] = Finding(
        cell_id=cell.cell_id,
        schedule=outcome.schedule,
        minimized=minimized.encode(),
        classification=outcome.classification,
        violations=outcome.violations,
        digest=outcome.digest,
        baseline_digest=baseline.digest,
    )


# -- drivers -----------------------------------------------------------------------


def explore_cell(
    cell: Union[CampaignCell, str],
    mode: str = "dfs",
    schedules: int = 200,
    seed: int = 0,
    bound: int = 2,
    max_runs: int = 5000,
    max_choice_points: int = 400,
    window: Optional[tuple[float, float]] = DEFAULT_WINDOW,
    por: bool = True,
    minimize: bool = True,
    shrink_budget: int = 150,
    workers: int = 1,
) -> ExploreResult:
    """Explore one cell's schedule space.

    ``mode``:

    * ``dfs`` — bounded-exhaustive DFS with partial-order reduction
      (``por=False`` disables sleep sets + state pruning for
      cross-validation).  ``max_runs`` bounds executions, and
      ``max_choice_points`` bounds in-window choice depth; the result is
      ``exhaustive`` only if neither bound bit.
    * ``random`` — ``schedules`` seeded random walks ``rw:<seed>``,
      ``rw:<seed+1>``, ...  Each walk is fully determined by its seed, so
      ``workers`` processes run them through ``parallel_map`` and the
      result is the one-process result, whatever the worker count.
    * ``delay`` — all schedules with at most ``bound`` deviations from
      FIFO, deviation positions increasing (CHESS-style delay bounding),
      capped by ``max_runs``.
    """
    if isinstance(cell, str):
        cell = parse_cell_id(cell)
    started = time.perf_counter()
    baseline, base_controller, _ = _run(
        cell, None, window=window, max_choice_points=max_choice_points
    )
    findings: dict = {}
    digests = {baseline.digest}
    schedules_run = 1
    pruned = 0
    exhaustive = False
    budget_exhausted = False
    truncated = baseline.truncated_points > 0

    if mode == "dfs":
        for collapse in (True, False):
            driver = _DfsDriver(por=por, collapse=collapse)
            # First iteration re-runs the baseline under the driver so the
            # DFS tree includes it.
            schedules_run = 0
            pruned = 0
            findings = {}
            digests = {baseline.digest}
            budget_exhausted = False
            truncated = baseline.truncated_points > 0
            baseline_replayed = False
            unsound = False
            while True:
                if schedules_run + pruned >= max_runs:
                    exhaustive = False
                    budget_exhausted = True
                    break
                driver.begin_run()
                try:
                    outcome, controller, _ = _run(
                        cell, None, window=window,
                        max_choice_points=max_choice_points,
                        on_choice=driver.on_choice, on_event=driver.on_event,
                    )
                    schedules_run += 1
                    truncated = truncated or outcome.truncated_points > 0
                    digests.add(outcome.digest)
                    if not baseline_replayed:
                        baseline_replayed = True
                    elif _diverges(outcome, baseline):
                        _record_finding(
                            findings, cell, window, baseline, outcome,
                            controller, minimize, shrink_budget,
                        )
                except PruneRun:
                    pruned += 1
                except UnsoundReduction:
                    # Collapse premise broken: rerun the whole DFS without
                    # the group collapse (soundness over speed).
                    unsound = True
                    break
                if not driver.backtrack():
                    exhaustive = not truncated
                    break
            if not unsound:
                break
        bounds = {
            "max_runs": max_runs,
            "max_choice_points": max_choice_points,
            "por": por,
            "group_collapse": driver.collapse,
            "collapsed_groups": driver.collapsed_groups,
            "max_depth_seen": driver.max_depth_seen,
            "pruned_sleep": driver.pruned_sleep,
            "pruned_state": driver.pruned_state,
        }
    elif mode == "random":
        items = [
            (cell.cell_id, f"rw:{seed + walk}", window, max_choice_points)
            for walk in range(schedules)
        ]
        outcomes = parallel_map(replay_cell, items, workers=workers)
        for walk, outcome in enumerate(outcomes):
            schedules_run += 1
            digests.add(outcome.digest)
            if _diverges(outcome, baseline):
                # Outcomes cross process boundaries, controllers do not:
                # re-run the walk here for the choice record that ddmin
                # starts from.
                _, controller, _ = _run(
                    cell, ScheduleSpec.random_walk(seed + walk),
                    window=window, max_choice_points=max_choice_points,
                )
                _record_finding(
                    findings, cell, window, baseline, outcome,
                    controller, minimize, shrink_budget,
                )
        bounds = {"schedules": schedules, "seed": seed}
    elif mode == "delay":
        queue: deque[tuple[tuple[int, int], ...]] = deque([()])
        seen: set[tuple[tuple[int, int], ...]] = {()}
        while queue and schedules_run < max_runs:
            deviations = queue.popleft()
            spec = ScheduleSpec.from_choices(deviations)
            outcome, controller, _ = _run(
                cell, spec, window=window, max_choice_points=max_choice_points
            )
            if deviations:  # the empty set re-runs the baseline
                schedules_run += 1
                digests.add(outcome.digest)
                if _diverges(outcome, baseline):
                    _record_finding(
                        findings, cell, window, baseline, outcome,
                        controller, minimize, shrink_budget,
                    )
            if len(deviations) >= bound:
                continue
            last_pos = deviations[-1][0] if deviations else -1
            for record in controller.records:
                if record.pos <= last_pos:
                    continue
                for index in record.eligible:
                    if index == record.chosen:
                        continue
                    # Prioritising a commuting event is a no-op schedule
                    # (same ample-set argument as the DFS) — skip it.
                    if event_meta(record.labels[index]).commuting:
                        continue
                    extended = deviations + ((record.pos, index),)
                    if extended not in seen:
                        seen.add(extended)
                        queue.append(extended)
        exhaustive = not queue and not truncated
        budget_exhausted = bool(queue)
        bounds = {"bound": bound, "max_runs": max_runs}
    else:
        raise ValueError(f"unknown exploration mode: {mode!r}")

    return ExploreResult(
        cell=cell,
        mode=mode,
        window=window,
        baseline=baseline,
        schedules_run=schedules_run,
        pruned=pruned,
        distinct_digests=len(digests),
        digests=frozenset(digests),
        findings=sorted(
            findings.values(), key=lambda f: (f.classification, f.minimized)
        ),
        exhaustive=exhaustive,
        budget_exhausted=budget_exhausted,
        elapsed_s=time.perf_counter() - started,
        bounds=bounds,
    )


# -- counterexample artifacts --------------------------------------------------------


def export_schedule_trace(
    cell: Union[CampaignCell, str],
    schedule: Union[ScheduleSpec, str],
    out_dir,
) -> "list":
    """Re-run ``cell`` under ``schedule`` and dump causal-span artifacts.

    Writes ``<cell>_<schedule>.chrome.json`` (Perfetto-loadable),
    ``...tree.txt`` (span forest) and ``...outcome.json`` under
    ``out_dir``; returns the written paths.  This is the post-mortem
    bundle attached to every explorer counterexample.
    """
    import json
    from pathlib import Path

    from repro.obs import write_span_artifacts

    if isinstance(cell, str):
        cell = parse_cell_id(cell)
    if isinstance(schedule, str):
        schedule = ScheduleSpec.parse(schedule)
    outcome, _, runtime = _run(cell, schedule)
    if runtime is None:
        raise RuntimeError(f"cell {cell.cell_id} ran no runtime to trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = (
        f"{cell.cell_id}_{schedule.encode()}".replace(":", "_")
        .replace(",", "+").replace("=", "-")
    )
    chrome_path = out / f"{stem}.chrome.json"
    tree_path = out / f"{stem}.tree.txt"
    write_span_artifacts(
        runtime.spans, {"chrome": chrome_path, "tree": tree_path},
        runtime.sim.now, f"explore:{cell.cell_id}",
    )
    outcome_path = out / f"{stem}.outcome.json"
    outcome_path.write_text(
        json.dumps(
            {
                "cell": outcome.cell_id,
                "schedule": outcome.schedule,
                "classification": outcome.classification,
                "violations": list(outcome.violations),
                "digest": repr(outcome.digest),
                "trace_hash": outcome.trace_hash,
            },
            indent=1,
        )
        + "\n"
    )
    return [chrome_path, tree_path, outcome_path]
