"""Fault-matrix campaign engine with protocol invariant oracles.

The resolution protocol's correctness argument (Sections 4.1–4.2) rests on
invariants — every participant of an action agrees on the resolved
exception, every handler runs at most once, resolution terminates — that
the worked examples only witness on the happy path.  This module sweeps a
*fault matrix* instead: every protocol variant in the repo crossed with
every fault the injector models, each run checked against explicit
oracles.

Matrix axes
-----------

* **Scenario family** — ``paper``: the Section 4.4 ``(N, P, Q)`` workload
  shape (fuzzed shapes, exact count formulas known); ``fuzz``: random
  nested worlds from :mod:`repro.workloads.fuzz` (no count formula, full
  nesting generality, base variant only).
* **Variant** — ``base`` (Section 4.2 decentralised algorithm), ``ct``
  (crash-tolerant extension), ``mc`` (Section 4.5 multicast variant),
  ``cd`` (Section 4.5 centralised variant).  ``mc``/``cd`` run the flat
  projection of the workload (``cd`` ignores Q: it is a flat-action
  variant by construction).
* **Fault** — ``none``, ``drop`` (lossy channel + ARQ transport),
  ``corrupt`` (checksum-detected corruption + ARQ), ``partition`` (a
  6-time-unit split covering the resolution window + ARQ),
  ``crash_participant`` and ``crash_resolver`` (node death mid-protocol;
  for ``ct`` cells with Q > 0 the participant crash lands *during nested
  abortion* — the crash-tolerant variant's newest increment).

Oracles (per cell)
------------------

1. **Termination** — the run finishes (all behaviours complete / all
   survivors handle).  A stall is only acceptable where this repo
   *documents* the protocol stalls (crashes under variants without a
   failure detector); anything else is classified ``STALLED-BUG``.
2. **Agreement** — every participant that started a resolved handler for
   an action started it for the *same* exception (crashed members'
   pre-death handlers included).
3. **Exactly-once** — no participant activates a resolved handler twice
   for one action incarnation.
4. **Counts** — fault-free cells must reproduce the paper's exact message
   counts: ``(N-1)(2P+3Q+1)`` for ``base``, ``(N-1)(2P+2Q+1)`` for
   ``ct``, ``N+Q+1`` multicast operations for ``mc``, ``3N-2+P`` for
   ``cd``.

Classifications: ``OK``, ``STALLED-EXPECTED``, ``STALLED-BUG``,
``INVARIANT-VIOLATION``, ``CRASHED-HARNESS`` (the harness itself raised —
campaign cells never take the whole sweep down).  Each failing cell
carries a one-line repro command.

The oracles themselves are tested by *sabotage*: :func:`oracle_selftest`
re-runs a healthy cell with seeded violations (flipped handler, doubled
activation, off-by-one count, forced stall) and checks each one is caught.

Campaign fan-out rides :func:`repro.workloads.parallel.parallel_map`
(fork pool, deterministic reassembly); cells are independent seeded
simulations, so a campaign is reproducible from its seed alone.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.core import variants
from repro.net.failures import FailurePlan, split_partition
from repro.net.latency import ConstantLatency
from repro.objects.naming import canonical_name
from repro.simkernel.trace import TraceLevel
from repro.workloads.parallel import parallel_map

# Classifications --------------------------------------------------------------

OK = "OK"
STALLED_EXPECTED = "STALLED-EXPECTED"
STALLED_BUG = "STALLED-BUG"
INVARIANT_VIOLATION = "INVARIANT-VIOLATION"
CRASHED_HARNESS = "CRASHED-HARNESS"

CLASSIFICATIONS = (
    OK, STALLED_EXPECTED, STALLED_BUG, INVARIANT_VIOLATION, CRASHED_HARNESS
)

#: Classifications that make a campaign fail.
BAD = (STALLED_BUG, INVARIANT_VIOLATION, CRASHED_HARNESS)

# Matrix axes ------------------------------------------------------------------

#: The matrix's variant axis: every servable row of the registry (``cr``
#: is explorer and conformance material, and knows no fault but ``none``).
VARIANTS = variants.SERVABLE
FAULTS = (
    "none", "drop", "corrupt", "partition",
    "crash_participant", "crash_resolver",
)
#: Crash-*restart* faults (ct only): the victim dies mid-protocol and its
#: node later comes back, replays its WAL and runs the rejoin protocol.
#: ``early`` restarts before resolution completes (the returnee must
#: rejoin with the agreed handler), ``late`` restarts after (it must
#: confirm its abort), ``resolver`` crashes and early-restarts the
#: would-be resolver itself.  These rows live in :func:`recovery_matrix`
#: (E28), not the default matrix, so ``BENCH_faults.json`` stays stable.
RECOVERY_FAULTS = (
    "crash_restart_early", "crash_restart_late", "crash_restart_resolver",
)
FUZZ_FAULTS = ("none", "drop", "corrupt", "partition", "crash")

SABOTAGES = ("disagree", "double", "count", "stall", "rejoin")

# Fault parameters (shared by every cell so campaigns stay comparable).
DROP_P = 0.2
CORRUPT_P = 0.15
#: Paper-family partition window: opens just after the t=10 raise, long
#: enough to block the ACK round, short enough that ARQ retransmission
#: (and the crash-tolerant detector's timeout) ride it out.
PARTITION_WINDOW = (11.0, 17.0)
FUZZ_PARTITION_WINDOW = (6.0, 12.0)
ACK_TIMEOUT = 2.0
MAX_RETRIES = 25
RAISE_AT = 10.0
#: Crash just after the raise instant: broadcasts are out, ACKs are not.
CRASH_AT = 10.5
#: Crash-tolerant nested cells crash *mid-abortion* instead: informed at
#: ~11 (unit latency), aborting for ABORT_DURATION, dead at 13.
CT_NESTED_CRASH_AT = 13.0
ABORT_DURATION = 5.0
HB_INTERVAL = 2.0
#: Above the partition window plus ARQ slack: no false suspicion in
#: partition cells (suspicion under partitions is a different experiment).
HB_TIMEOUT = 12.0
FUZZ_CRASH_AT = 15.0
#: Early restart: before anyone suspects the victim (suspicion needs
#: HB_TIMEOUT of silence past the last pre-crash heartbeat, ~t=24), so
#: resolution is still in flight and the returnee can fully re-participate.
RESTART_EARLY_AT = 16.0
#: Late restart: well after the survivors resolved over the shrunk view
#: (commit lands ~t=25-27), so the returnee's only correct move is to
#: confirm its abort.
RESTART_LATE_AT = 60.0
RUN_UNTIL = 400.0


@dataclass(frozen=True)
class CampaignCell:
    """One point of the fault matrix (picklable, fully describes a run)."""

    family: str  # "paper" | "fuzz"
    variant: str  # a key of core.variants.VARIANTS ("fuzz" family: "base")
    fault: str
    n: int
    p: int = 0
    q: int = 0
    seed: int = 0
    sabotage: Optional[str] = None

    @property
    def cell_id(self) -> str:
        base = (
            f"{self.family}:{self.variant}:{self.fault}"
            f":n{self.n}p{self.p}q{self.q}:s{self.seed}"
        )
        return f"{base}:sab-{self.sabotage}" if self.sabotage else base

    def repro_command(self) -> str:
        return (
            "PYTHONPATH=src python benchmarks/bench_fault_campaigns.py "
            f"--cell '{self.cell_id}'"
        )


def parse_cell_id(cell_id: str) -> CampaignCell:
    """Inverse of :attr:`CampaignCell.cell_id` (for ``--cell`` repros)."""
    parts = cell_id.split(":")
    if len(parts) not in (5, 6):
        raise ValueError(f"malformed cell id: {cell_id!r}")
    family, variant, fault, shape, seed_part = parts[:5]
    sabotage = None
    if len(parts) == 6:
        if not parts[5].startswith("sab-"):
            raise ValueError(f"malformed sabotage suffix in {cell_id!r}")
        sabotage = parts[5][len("sab-"):]
    try:
        n_str, rest = shape[1:].split("p", 1)
        p_str, q_str = rest.split("q", 1)
        n, p, q = int(n_str), int(p_str), int(q_str)
        seed = int(seed_part.lstrip("s"))
    except ValueError:
        raise ValueError(f"malformed cell id: {cell_id!r}") from None
    return CampaignCell(family, variant, fault, n, p, q, seed, sabotage)


@dataclass(frozen=True)
class CellOutcome:
    """What one cell's run produced, post-oracle."""

    cell: CampaignCell
    classification: str
    violations: tuple[str, ...] = ()
    detail: str = ""
    measured: Optional[int] = None
    expected: Optional[int] = None
    sim_duration: float = 0.0

    @property
    def bad(self) -> bool:
        return self.classification in BAD

    def repro_line(self) -> str:
        return f"[{self.classification}] {self.cell.cell_id} -> {self.cell.repro_command()}"


@dataclass
class _Observation:
    """Raw facts one run exposes to the oracles (sabotage perturbs these)."""

    finished: bool
    handled: dict[str, str] = field(default_factory=dict)
    double_handled: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    measured: Optional[int] = None
    expected: Optional[int] = None
    crashed: tuple[str, ...] = ()
    survivors: tuple[str, ...] = ()
    sim_duration: float = 0.0
    #: Why the run did not finish, when the observer can say (who waits on
    #: whom); carried to :attr:`CellOutcome.detail`.
    detail: str = ""
    #: The run's Runtime — in-process diagnostics only (never pickled:
    #: :func:`run_cell` reduces observations to plain :class:`CellOutcome`
    #: before results cross the pool boundary).
    runtime: Optional[object] = None


# -- victim selection -----------------------------------------------------------


def _crash_mid_abortion(cell: CampaignCell) -> bool:
    """Does this cell's participant crash land *during nested abortion*?
    Only where surviving it is the contract: a detector variant (``ct``)
    with nested members."""
    return cell.q > 0 and variants.VARIANTS[cell.variant].detects_failures


def _participant_victim(cell: CampaignCell) -> str:
    """A non-resolver victim.

    For ``ct`` cells with nested members, the victim is the first nested
    member so the crash lands mid-abortion; otherwise the last (or, when
    everyone raises, the first) participant.
    """
    if _crash_mid_abortion(cell):
        return canonical_name(cell.p)
    if cell.p == cell.n:
        return canonical_name(0)
    return canonical_name(cell.n - 1)


def stall_expected(cell: CampaignCell) -> bool:
    """Is a stall the *documented* outcome for this cell?

    The base, multicast and centralised variants have no failure detector:
    a mid-protocol crash leaves someone waiting forever (for ``cd`` the
    coordinator is additionally a single point of failure).  The
    crash-tolerant variant must never stall — that is its contract.
    """
    if cell.family == "fuzz":
        return cell.fault == "crash"
    if cell.fault not in ("crash_participant", "crash_resolver"):
        return False
    return not variants.VARIANTS[cell.variant].detects_failures


# -- cell execution --------------------------------------------------------------


def _fault_knobs(cell: CampaignCell, members: Sequence[str]) -> dict:
    """Translate the fault axis into run-function keyword arguments."""
    window = (
        FUZZ_PARTITION_WINDOW if cell.family == "fuzz" else PARTITION_WINDOW
    )
    if cell.fault == "none":
        return {}
    if cell.fault == "drop":
        return {
            "failure_plan": FailurePlan(drop_probability=DROP_P),
            "reliable": True,
        }
    if cell.fault == "corrupt":
        return {
            "failure_plan": FailurePlan(corrupt_probability=CORRUPT_P),
            "reliable": True,
        }
    if cell.fault == "partition":
        return {
            "failure_plan": FailurePlan(
                partitions=[split_partition(list(members), *window)]
            ),
            "reliable": True,
        }
    if cell.fault in ("crash_participant", "crash_resolver", "crash", *RECOVERY_FAULTS):
        return {}  # crashes and restarts are scheduled events, not injector knobs
    raise ValueError(f"unknown fault: {cell.fault}")


def _crash_spec(cell: CampaignCell) -> tuple[tuple[str, ...], float]:
    """(victims, crash time) for crash cells; ((), 0.0) otherwise."""
    if cell.fault in ("crash_resolver", "crash_restart_resolver"):
        # The biggest raiser (``cd``: the coordinator).
        return (variants.VARIANTS[cell.variant].resolver(cell.p),), CRASH_AT
    if cell.fault in (
        "crash_participant", "crash_restart_early", "crash_restart_late"
    ):
        at = CT_NESTED_CRASH_AT if _crash_mid_abortion(cell) else CRASH_AT
        return (_participant_victim(cell),), at
    return (), 0.0


def restart_spec(cell: CampaignCell) -> Optional[float]:
    """Restart time for recovery cells; ``None`` for everything else."""
    if cell.fault == "crash_restart_late":
        return RESTART_LATE_AT
    if cell.fault in ("crash_restart_early", "crash_restart_resolver"):
        return RESTART_EARLY_AT
    return None


def expected_rejoin_outcome(cell: CampaignCell) -> Optional[str]:
    """The recovery oracle's verdict for the restarted victim."""
    if cell.fault == "crash_restart_late":
        return "confirmed-abort"
    if cell.fault in ("crash_restart_early", "crash_restart_resolver"):
        return "rejoined"
    return None


def _observe_paper(
    cell: CampaignCell, run_until: Optional[float], trace_level: TraceLevel
) -> _Observation:
    """One paper-family cell of any variant: ``run_action`` plus one
    reduction to the facts the oracles judge.  Every fact comes from
    participant and runner state or the send counters, never from a trace
    record, so the verdict is the same at ``COUNTS`` as at ``FULL``."""
    import shutil
    import tempfile

    spec = variants.VARIANTS[cell.variant]
    if cell.fault != "none" and not spec.servable:
        raise ValueError(
            f"{cell.variant} cells support only fault 'none' (the variant "
            f"is outside the fault matrix), got {cell.fault!r}"
        )
    q = cell.q if spec.nests else 0  # a flat variant runs the flat projection
    victims, crash_at = _crash_spec(cell)
    names = [canonical_name(i) for i in range(cell.n)]
    members = [*names, spec.coordinator] if spec.coordinator else names
    knobs = _fault_knobs(cell, members)
    if spec.detects_failures:
        knobs.update(
            hb_interval=HB_INTERVAL, hb_timeout=HB_TIMEOUT,
            abort_duration=ABORT_DURATION,
        )
    restart_at = restart_spec(cell)
    wal_dir: Optional[str] = None
    if restart_at is not None:
        # Recovery cells run over real per-node WAL files: the restart
        # path must exercise scan/replay/undo against actual bytes, not a
        # mocked log.  (fsync itself stays off — simulated time.)
        wal_dir = tempfile.mkdtemp(prefix="repro-wal-")
        knobs.update(restart_at=restart_at, durable_dir=wal_dir)
    try:
        run = variants.run_action(
            cell.variant, cell.n, cell.p, q,
            seed=cell.seed, latency=ConstantLatency(1.0), raise_at=RAISE_AT,
            crashes=[(victim, crash_at) for victim in victims],
            ack_timeout=ACK_TIMEOUT, max_retries=MAX_RETRIES,
            until=RUN_UNTIL if run_until is None else run_until,
            trace_level=trace_level, **knobs,
        )
        survivors = tuple(n for n in names if n not in victims)
        problems: list[str] = []
        handled = run.handled()
        # base: crashed members' pre-death handlers stay in the agreement
        # check; the others judge survivors and rejoined returnees only.
        if run.runners is None:
            judged = set(survivors)
            if restart_at is not None:
                problems.extend(_check_recovery(cell, run))
                # A rejoined returnee ran the resolved handler: it re-enters
                # the agreement and exactly-once oracles alongside survivors.
                judged.update(
                    v for v in victims
                    if run.participants[v].rejoin_outcome == "rejoined"
                )
            handled = {n: e for n, e in handled.items() if n in judged}
        finished = run.all_finished()
        if finished and not victims:
            missing = set(names) - set(handled)
            if missing:
                problems.append(
                    f"completeness: {sorted(missing)} never started the "
                    "resolved handler"
                )
        fault_free = cell.fault == "none" and spec.expected is not None
        return _Observation(
            finished=finished, handled=handled,
            double_handled=run.double_handled(),
            problems=problems, measured=run.messages(),
            expected=spec.expected(cell.n, cell.p, q) if fault_free else None,
            crashed=victims, survivors=survivors,
            sim_duration=run.duration, runtime=run.runtime,
        )
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)


def _check_recovery(cell: CampaignCell, result) -> list[str]:
    """The recovery oracle: the crashed node rejoined or confirmed abort.

    Checks, per restarted victim: (a) the rejoin outcome matches the
    cell's fault (early restart -> ``rejoined``, late -> standing
    ``confirmed-abort``); (b) its WAL replay actually undid the work
    transaction the crash cut short; (c) its durable object state is back
    to the initial snapshot; (d) a rejoined victim handled the same
    exception the survivors did (the agreement oracle re-checks this
    globally once the victim is folded into ``handled``).
    """
    problems: list[str] = []
    want = expected_rejoin_outcome(cell)
    for victim in result.crashed:  # a recovery cell restarts every victim
        participant = result.participants[victim]
        outcome = participant.rejoin_outcome
        if outcome != want:
            problems.append(
                f"recovery: {victim} outcome {outcome!r}, wanted {want!r}"
            )
        store = (result.stores or {}).get(victim)
        if store is None:
            problems.append(f"recovery: {victim} has no durable store")
            continue
        if not store.recovered_incomplete:
            problems.append(
                f"recovery: {victim} WAL replay undid no transactions "
                "(the crash cut its work transaction short)"
            )
        obj = next(iter(store.objects.values()))
        if obj.snapshot() != {"progress": None}:
            problems.append(
                f"recovery: {victim} durable state not rolled back: "
                f"{obj.snapshot()}"
            )
        if want == "rejoined" and participant.handled is None:
            problems.append(
                f"recovery: {victim} rejoined but never ran a handler"
            )
    return problems


def _observe_fuzz(
    cell: CampaignCell, run_until: Optional[float], trace_level: TraceLevel
) -> _Observation:
    from repro.workloads.fuzz import build_random_scenario, check_invariants

    if trace_level != TraceLevel.FULL:
        raise ValueError(
            "fuzz cells are judged from their trace records: "
            "check_invariants needs TraceLevel.FULL"
        )
    scenario, plan = build_random_scenario(
        cell.seed, n_participants=cell.n, random_latency=True
    )
    names = [f"O{i:02d}" for i in range(cell.n)]
    knobs = _fault_knobs(cell, names)
    victims: tuple[str, ...] = ()
    if cell.fault == "crash":
        victims = (names[-1],)
        scenario.crashes = [(victims[0], FUZZ_CRASH_AT)]
    scenario.failure_plan = knobs.get("failure_plan")
    scenario.reliable = knobs.get("reliable", False)
    scenario.max_retries = MAX_RETRIES
    result = scenario.run(
        until=RUN_UNTIL if run_until is None else run_until,
        max_events=2_000_000,
    )
    problems = check_invariants(result, plan)
    stalls = [p for p in problems if p.startswith("non-termination")]
    problems = [p for p in problems if not p.startswith("non-termination")]
    return _Observation(
        finished=not stalls, problems=problems, detail="; ".join(stalls),
        crashed=victims,
        survivors=tuple(n for n in names if n not in victims),
        sim_duration=result.duration, runtime=result.runtime,
    )


def observe_cell(
    cell: CampaignCell,
    run_until: Optional[float] = None,
    trace_level: TraceLevel = TraceLevel.FULL,
) -> _Observation:
    """Run one cell's observer (raises on harness error — callers that
    need the never-raises contract use :func:`run_cell`).

    ``run_until`` overrides the campaign-wide :data:`RUN_UNTIL` horizon —
    the conformance harness shortens it on the wall-clocked asyncio
    backend, where simulated time units cost real seconds.
    ``trace_level`` is the run's: callers that read the returned runtime's
    records keep the default ``FULL``; a paper cell's verdict needs none
    of them, and a fuzz cell accepts ``FULL`` only.
    """
    if cell.family == "paper" and cell.variant in variants.VARIANTS:
        observer = _observe_paper
    elif (cell.family, cell.variant) == ("fuzz", "base"):
        observer = _observe_fuzz
    else:
        raise ValueError(
            f"no observer for family={cell.family} variant={cell.variant}"
        )
    if (
        cell.fault in RECOVERY_FAULTS
        and "restart_at" not in variants.VARIANTS[cell.variant].options
    ):
        raise ValueError(
            f"recovery fault {cell.fault!r} requires the ct variant "
            "(only the crash-tolerant extension has a rejoin protocol)"
        )
    return observer(cell, run_until, trace_level)


# -- oracles ---------------------------------------------------------------------


def _apply_sabotage(cell: CampaignCell, obs: _Observation) -> None:
    """Seed a violation into the observation (oracle self-test support)."""
    if cell.sabotage is None:
        return
    if cell.sabotage == "disagree":
        if obs.handled:
            first = sorted(obs.handled)[0]
            obs.handled[first] = obs.handled[first] + "__SABOTAGED"
        else:
            obs.handled.update({"X1": "ExcA", "X2": "ExcB"})
    elif cell.sabotage == "double":
        obs.double_handled.append("sabotage: seeded double activation")
    elif cell.sabotage == "count":
        obs.measured = (obs.measured or 0) + 1
        if obs.expected is None:
            obs.expected = obs.measured - 1
    elif cell.sabotage == "stall":
        obs.finished = False
    elif cell.sabotage == "rejoin":
        obs.problems.append(
            "sabotage: seeded recovery violation (rejoin outcome flipped)"
        )
    else:
        raise ValueError(f"unknown sabotage: {cell.sabotage}")


def _check_oracles(cell: CampaignCell, obs: _Observation) -> list[str]:
    violations = list(obs.problems)
    if len(set(obs.handled.values())) > 1:
        violations.append(f"handler disagreement: {obs.handled}")
    violations.extend(
        f"exactly-once violated: {entry}" for entry in obs.double_handled
    )
    if obs.expected is not None and obs.measured != obs.expected:
        violations.append(
            f"message-count mismatch: measured {obs.measured}, "
            f"expected {obs.expected}"
        )
    return violations


def classify_observation(
    cell: CampaignCell, obs: _Observation
) -> tuple[str, tuple[str, ...]]:
    """Apply the invariant oracles to one observation.

    Shared by the fault campaigns and the schedule explorer, so a
    violation means the same thing whichever harness found it.
    """
    violations = tuple(_check_oracles(cell, obs))
    if violations:
        classification = INVARIANT_VIOLATION
    elif not obs.finished:
        classification = (
            STALLED_EXPECTED if stall_expected(cell) else STALLED_BUG
        )
    else:
        classification = OK
    return classification, violations


def run_cell(cell: CampaignCell) -> CellOutcome:
    """Run one cell and classify it.  Never raises: harness failures come
    back as ``CRASHED-HARNESS`` outcomes so one broken cell cannot take a
    campaign down.  A paper cell runs at ``TraceLevel.COUNTS``: its
    verdict reads no trace record, and nobody reads the runtime after."""
    # The fuzz oracle, ``check_invariants``, reads trace records.
    level = TraceLevel.COUNTS if cell.family == "paper" else TraceLevel.FULL
    try:
        obs = observe_cell(cell, trace_level=level)
    except Exception:  # noqa: BLE001 — any harness error becomes an outcome
        return CellOutcome(
            cell, CRASHED_HARNESS, detail=traceback.format_exc()
        )
    _apply_sabotage(cell, obs)
    classification, violations = classify_observation(cell, obs)
    return CellOutcome(
        cell, classification, violations=violations, detail=obs.detail,
        measured=obs.measured, expected=obs.expected,
        sim_duration=obs.sim_duration,
    )


def export_cell_trace(cell: CampaignCell, out_dir) -> "Path":
    """Re-run one cell and dump its causal trace for post-mortem analysis.

    Writes ``<cell_id>.chrome.json`` (Perfetto / ``chrome://tracing``
    loadable) and ``<cell_id>.tree.txt`` under ``out_dir`` and returns the
    chrome path.  Stalled cells are the target audience: a crashed or
    stuck member's resolution span stays *open*, so the dump shows exactly
    which participant never left which protocol state.  Sabotage is
    stripped before the re-run — sabotage perturbs observations, not the
    simulation, so there is nothing of it to see in a trace.
    """
    from pathlib import Path

    from repro.obs import write_span_artifacts

    runtime = observe_cell(replace(cell, sabotage=None)).runtime
    if runtime is None:
        raise RuntimeError(f"cell {cell.cell_id} ran no runtime to trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = cell.cell_id.replace(":", "_")
    chrome_path = out / f"{stem}.chrome.json"
    write_span_artifacts(
        runtime.spans,
        {"chrome": chrome_path, "tree": out / f"{stem}.tree.txt"},
        runtime.sim.now, f"repro:{cell.cell_id}",
    )
    return chrome_path


# -- matrix + campaign ------------------------------------------------------------


def default_matrix(smoke: bool = False, seed: int = 0) -> list[CampaignCell]:
    """The default campaign: fuzzed paper shapes x variants x faults, plus
    random nested worlds x faults.

    Full: 10 shapes x 4 variants x 6 faults + 10 fuzz worlds x 5 faults
    = 290 cells.  Smoke: 2 shapes + 2 worlds = 58 cells (the CI gate).
    """
    import random

    rng = random.Random(seed)
    n_shapes = 2 if smoke else 10
    n_fuzz = 2 if smoke else 10
    shapes: list[tuple[int, int, int]] = []
    while len(shapes) < n_shapes:
        n = rng.randint(3, 8)
        p = rng.randint(1, n)
        q = rng.randint(0, n - p)
        if (n, p, q) not in shapes:
            shapes.append((n, p, q))
    cells = [
        CampaignCell("paper", variant, fault, n, p, q, seed=seed)
        for (n, p, q) in shapes
        for variant in VARIANTS
        for fault in FAULTS
    ]
    cells.extend(
        CampaignCell(
            "fuzz", "base", fault, n=4 + (i % 2), seed=seed * 1000 + i
        )
        for i in range(n_fuzz)
        for fault in FUZZ_FAULTS
    )
    return cells


def recovery_matrix(smoke: bool = False, seed: int = 0) -> list[CampaignCell]:
    """The crash-restart recovery campaign (E28, ``BENCH_recovery.json``).

    Fuzzed paper shapes x the three recovery faults on the crash-tolerant
    variant — every cell runs a real WAL per node, crashes the victim
    mid-protocol (mid-*abortion* when the shape has nested members) and
    restarts its node, asserting the victim rejoins with the agreed
    handler (early/resolver restarts) or confirms its abort (late).  Each
    shape also runs fault-free to re-prove the exact Section 4.4 count
    with the durable layer attached — durability must not cost messages.

    Full: 8 shapes x 4 = 32 cells.  Smoke: 2 shapes x 4 = 8 (the CI
    ``recovery-smoke`` gate).  Kept out of :func:`default_matrix` so the
    long-tracked ``BENCH_faults.json`` trajectory stays comparable.
    """
    import random

    rng = random.Random(seed)
    n_shapes = 2 if smoke else 8
    shapes: list[tuple[int, int, int]] = []
    while len(shapes) < n_shapes:
        n = rng.randint(3, 8)
        p = rng.randint(1, n)
        q = rng.randint(0, n - p)
        if (n, p, q) not in shapes:
            shapes.append((n, p, q))
    if not any(q for (_, _, q) in shapes):
        # Always cover the crash-mid-abortion path at least once.
        n, p, _ = shapes[-1]
        if p == n:
            n, p = n + 1, p
        shapes[-1] = (n, p, 1)
    return [
        CampaignCell("paper", "ct", fault, n, p, q, seed=seed)
        for (n, p, q) in shapes
        for fault in (*RECOVERY_FAULTS, "none")
    ]


def recovery_oracle_selftest(seed: int = 0) -> list[str]:
    """Sabotage pass for the recovery oracle (returns problems; [] = good).

    Mirrors :func:`oracle_selftest` for the E28 rows: a healthy recovery
    cell must classify ``OK``, and the same cell with a seeded recovery
    violation must flip to ``INVARIANT-VIOLATION``.
    """
    base = CampaignCell(
        "paper", "ct", "crash_restart_early", n=5, p=2, q=0, seed=seed
    )
    problems: list[str] = []
    healthy = run_cell(base)
    if healthy.classification != OK:
        problems.append(
            f"recovery self-test baseline not OK: {healthy.classification} "
            f"{healthy.violations or healthy.detail}"
        )
    sabotaged = run_cell(replace(base, sabotage="rejoin"))
    if sabotaged.classification != INVARIANT_VIOLATION:
        problems.append(
            "recovery sabotage not caught: classified "
            f"{sabotaged.classification}, wanted {INVARIANT_VIOLATION}"
        )
    return problems


@dataclass
class CampaignReport:
    """Aggregated campaign result, JSON-able for ``BENCH_faults.json``."""

    outcomes: list[CellOutcome]

    def counts(self) -> dict[str, int]:
        tally = {classification: 0 for classification in CLASSIFICATIONS}
        for outcome in self.outcomes:
            tally[outcome.classification] += 1
        return tally

    def failures(self) -> list[CellOutcome]:
        return [outcome for outcome in self.outcomes if outcome.bad]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_payload(self) -> dict:
        return {
            "cells": len(self.outcomes),
            "counts": self.counts(),
            "ok": self.ok,
            "failures": [
                {
                    "cell": outcome.cell.cell_id,
                    "classification": outcome.classification,
                    "violations": list(outcome.violations),
                    "detail": outcome.detail,
                    "repro": outcome.cell.repro_command(),
                }
                for outcome in self.failures()
            ],
            "outcomes": [
                {
                    "cell": outcome.cell.cell_id,
                    "classification": outcome.classification,
                    "violations": list(outcome.violations),
                    "measured": outcome.measured,
                    "expected": outcome.expected,
                    "sim_duration": outcome.sim_duration,
                }
                for outcome in self.outcomes
            ],
        }


def run_campaign(
    cells: Sequence[CampaignCell], workers: Optional[int] = None
) -> CampaignReport:
    """Fan the cells out over a process pool and aggregate the outcomes."""
    return CampaignReport(parallel_map(run_cell, cells, workers=workers))


def oracle_selftest(seed: int = 0) -> list[str]:
    """Check the oracles catch seeded violations (returns problems; [] = good).

    Takes one healthy cell, plants each sabotage into its observation and
    verifies the classification flips as designed.  A campaign whose
    oracles cannot see planted bugs proves nothing — run this before
    trusting a green table.
    """
    base = CampaignCell("paper", "base", "none", n=4, p=2, q=1, seed=seed)
    healthy = run_cell(base)
    problems = []
    if healthy.classification != OK:
        problems.append(
            f"self-test baseline not OK: {healthy.classification} "
            f"{healthy.violations or healthy.detail}"
        )
    wanted = {
        "disagree": INVARIANT_VIOLATION,
        "double": INVARIANT_VIOLATION,
        "count": INVARIANT_VIOLATION,
        "stall": STALLED_BUG,
    }
    for sabotage, expected_class in wanted.items():
        outcome = run_cell(replace(base, sabotage=sabotage))
        if outcome.classification != expected_class:
            problems.append(
                f"sabotage {sabotage!r} not caught: classified "
                f"{outcome.classification}, wanted {expected_class}"
            )
    return problems
