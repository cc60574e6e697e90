"""The experiment registry: one row per committed table.

Every table under ``benchmarks/results/`` that reproduces a claim of the
paper (E1–E18, with E15 split into a/b/c) or extends one (E25, the §4.4
curve to N=512) is a row of :data:`EXPERIMENTS`: an id, a title, the
column headers, and the computation.  The computation returns the rows,
the note line under them, and whether the experiment's checks hold.

Two views read the rows:

* :meth:`Experiment.text` — the committed layout, byte for byte what
  ``benchmarks/results/<id>.txt`` holds.  The test suite compares the two
  (``tests/integration/test_experiment_tables.py``), so a stale table
  fails the suite; ``python benchmarks/experiments.py [ID ...]`` rewrites
  the files on purpose.
* :meth:`Experiment.markdown` — a section of ``python -m repro report``,
  which renders every row under one overall verdict and exits non-zero
  when any row's checks fail.

Each row computes once per process (:attr:`Experiment.result`).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from repro.analysis.fitting import PowerLawFit, fit_power_law
from repro.analysis.formulas import (
    case1_messages,
    case2_messages,
    case3_messages,
    centralized_messages,
    general_messages,
    multicast_operations,
    resolver_group_messages,
)
from repro.analysis.metrics import traffic_breakdown
from repro.core.abortion import AbortionHandler
from repro.core.action import CAActionDef, NestedPolicy
from repro.core.centralized_variant import CD_KINDS
from repro.core.cr_baseline import run_cr_domino
from repro.core.manager import ActionStatus
from repro.core.variants import run_action
from repro.exceptions import (
    HandlerSet,
    ResolutionTree,
    UniversalException,
    declare_exception,
)
from repro.exceptions.handlers import Handler, HandlerOutcome, HandlerResult
from repro.net.failures import CrashWindow, FailurePlan
from repro.net.latency import (
    BandwidthLatency,
    ConstantLatency,
    ExponentialLatency,
    UniformLatency,
)
from repro.simkernel.trace import TraceLevel
from repro.transactions import AtomicObject
from repro.workloads import (
    ActionBlock,
    AtomicWrite,
    Compute,
    ParticipantSpec,
    Raise,
    Scenario,
)
from repro.workloads.generator import (
    all_nested_case,
    all_raise_case,
    example1_scenario,
    example2_scenario,
    figure3_scenario,
    general_case,
    no_exception_case,
    single_exception_case,
)


def format_table(
    exp_id: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
) -> str:
    """The committed text layout: a title line, right-aligned columns, notes."""
    widths = [
        max([len(str(header))] + [len(str(row[i])) for row in rows])
        for i, header in enumerate(headers)
    ]
    lines = [
        f"== {exp_id}: {title} ==",
        "  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        for row in rows
    )
    if not rows:
        lines.append("(no rows)")
    if notes:
        lines.append(notes)
    return "\n".join(lines)


@dataclass
class ReportSection:
    """One markdown section of ``repro report``."""

    title: str
    headers: list[str]
    rows: Sequence[tuple]
    verdict: str
    notes: str = ""

    def render(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        lines.append("")
        lines.append(f"**Verdict: {self.verdict}**")
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        lines.append("")
        return "\n".join(lines)


class Table(NamedTuple):
    """What one computation produced."""

    rows: Sequence[tuple]
    notes: str
    #: True when every check the experiment makes holds.
    holds: bool


@dataclass(frozen=True)
class Experiment:
    """One committed table and the computation that reproduces it."""

    id: str
    title: str
    headers: tuple[str, ...]
    compute: Callable[[], Table]

    @cached_property
    def result(self) -> Table:
        """Computed once per process and shared by every view, so the rows
        are frozen into a tuple."""
        rows, notes, holds = self.compute()
        return Table(tuple(rows), notes, holds)

    def text(self) -> str:
        """``benchmarks/results/<id>.txt``, byte for byte."""
        rows, notes, _ = self.result
        return format_table(self.id, self.title, self.headers, rows, notes) + "\n"

    def markdown(self) -> str:
        rows, notes, holds = self.result
        return ReportSection(
            f"{self.id} — {self.title}", list(self.headers), rows,
            "holds" if holds else "DOES NOT HOLD", notes,
        ).render()


#: Experiment id -> row, in report order.
EXPERIMENTS: dict[str, Experiment] = {}


def experiment(exp_id: str, title: str, headers: Sequence[str]):
    """Register the decorated computation as the row ``exp_id``."""

    def register(compute: Callable[[], Table]) -> Callable[[], Table]:
        EXPERIMENTS[exp_id] = Experiment(exp_id, title, tuple(headers), compute)
        return compute

    return register


def generate_report() -> str:
    """Every row's markdown view under one overall verdict."""
    healthy = all(row.result.holds for row in EXPERIMENTS.values())
    header = [
        "# Reproduction report",
        "",
        "Romanovsky, Xu & Randell — *Exception Handling and Resolution in "
        "Distributed Object-Oriented Systems* (ICDCS 1996).",
        "",
        f"**Overall: {'all claims hold' if healthy else 'DISCREPANCIES FOUND'}**",
        "",
    ]
    return "\n".join(header) + "\n" + "\n".join(
        row.markdown() for row in EXPERIMENTS.values()
    )


def cr_comparison(sweep) -> list[tuple[int, int, int]]:
    """The paper's headline comparison: all N participants raise at once,
    under the CR baseline and under the new algorithm — ``(n, cr messages,
    new messages)`` per N.  E5 and ``repro compare`` print this one sweep."""
    return [
        (n, run_action("cr", n, n).messages(), run_action("base", n, n).messages())
        for n in sweep
    ]


def cr_growth(rows) -> tuple[PowerLawFit, PowerLawFit]:
    """Fitted growth orders (CR, new) of :func:`cr_comparison` rows."""
    return (
        fit_power_law([(n, cr) for n, cr, _ in rows]),
        fit_power_law([(n, new) for n, _, new in rows]),
    )


# -- Section 4.4: the closed-form counts ---------------------------------------------


def _counted(case, model, sweep, kinds) -> list[tuple]:
    """``(N, paper, measured, <per-kind counts>, verdict)`` per N."""
    rows = []
    for n in sweep:
        result = case(n).run()
        counts = result.messages_for_action("A1")
        measured = result.resolution_message_total()
        rows.append((
            n, model(n), measured, *(counts[kind] for kind in kinds),
            "OK" if measured == model(n) else "MISMATCH",
        ))
    return rows


@experiment(
    "E1", "one exception, no nesting -> 3(N-1) messages",
    ["N", "paper", "measured", "EXC", "ACK", "COMMIT", "verdict"],
)
def _e1() -> Table:
    rows = _counted(
        single_exception_case, case1_messages, (2, 4, 8, 16, 32, 64),
        ("EXCEPTION", "ACK", "COMMIT"),
    )
    return Table(
        rows, "per-kind split matches the paper's (N-1)/(N-1)/(N-1) breakdown",
        all(r[-1] == "OK" and r[3] == r[4] == r[5] == r[0] - 1 for r in rows),
    )


@experiment(
    "E2", "one exception, everyone else nested -> 3N(N-1) messages",
    ["N", "paper", "measured", "EXC", "HN", "NC", "ACK", "COMMIT", "verdict"],
)
def _e2() -> Table:
    rows = _counted(
        all_nested_case, case2_messages, (2, 4, 8, 16, 32),
        ("EXCEPTION", "HAVE_NESTED", "NESTED_COMPLETED", "ACK", "COMMIT"),
    )
    return Table(
        rows, "HN/NC are (N-1)^2 each; ACK = (N-1) + (N-1)^2, as the paper lists",
        all(
            r[-1] == "OK" and r[4] == r[5] == (r[0] - 1) ** 2
            and r[6] == (r[0] - 1) + (r[0] - 1) ** 2
            for r in rows
        ),
    )


@experiment(
    "E3", "all N raise simultaneously -> (N-1)(2N+1) messages",
    ["N", "paper", "measured", "EXC", "ACK", "COMMIT", "verdict"],
)
def _e3() -> Table:
    rows = _counted(
        all_raise_case, case3_messages, (2, 4, 8, 16, 32),
        ("EXCEPTION", "ACK", "COMMIT"),
    )
    return Table(
        rows, "EXC and ACK are N(N-1) each; a single commit round of (N-1)",
        all(
            r[-1] == "OK" and r[3] == r[4] == r[0] * (r[0] - 1) and r[5] == r[0] - 1
            for r in rows
        ),
    )


@experiment(
    "E4", "general formula (N-1)(2P+3Q+1) over the full (P,Q) grid",
    ["N", "P", "Q", "paper", "measured"],
)
def _e4() -> Table:
    grid = [
        (n, p, q, general_messages(n, p, q),
         general_case(n, p, q).run().resolution_message_total())
        for n in (4, 6, 8, 12)
        for p in range(1, n + 1)
        for q in range(0, n - p + 1)
    ]
    mismatches = sum(row[3] != row[4] for row in grid)
    sample = [
        row for row in grid
        if (row[1], row[2]) in {(1, 0), (1, row[0] - 1), (row[0], 0), (2, 2)}
    ]
    return Table(
        sample,
        f"full grid: {len(grid)} (N,P,Q) points checked, "
        f"{mismatches} mismatches (sample shown)",
        mismatches == 0,
    )


@experiment(
    "E5", "new algorithm vs Campbell-Randell baseline (concurrent raisers)",
    ["N", "CR msgs", "new msgs", "CR/new"],
)
def _e5() -> Table:
    counts = cr_comparison((2, 4, 8, 12, 16, 24))
    cr_fit, new_fit = cr_growth(counts[1:])  # N=2 is below the asymptote
    ratios = [cr / new for _, cr, new in counts]
    return Table(
        [(n, cr, new, f"{cr / new:.1f}x") for n, cr, new in counts],
        f"fitted growth: CR ~ N^{cr_fit.exponent:.2f} (r2={cr_fit.r_squared:.3f}), "
        f"new ~ N^{new_fit.exponent:.2f} (r2={new_fit.r_squared:.3f}); "
        "paper: O(N^3) vs O(N^2)",
        # The new algorithm always wins, the gap widens, the orders differ.
        all(cr > new for _, cr, new in counts) and ratios == sorted(ratios)
        and 2.6 < cr_fit.exponent < 3.4 and 1.8 < new_fit.exponent < 2.2,
    )


@experiment(
    "E6", "Section 3.3 domino: chain tree with reduced handler sets",
    ["N", "chain len", "CR raises", "CR msgs", "new msgs", "CR resolves to"],
)
def _e6() -> Table:
    rows = []
    for n in (2, 4, 8, 12, 16):
        cr = run_cr_domino(n)  # chain length 2N+1, interleaved handlers
        rows.append((
            n, 2 * n + 1, sum(len(p.raised) for p in cr.participants.values()),
            cr.messages(), single_exception_case(n).run().resolution_message_total(),
            sorted(cr.handled_exceptions())[0],
        ))
    fit = fit_power_law([(row[0], row[3]) for row in rows[1:]])
    return Table(
        rows,
        f"CR cascades to the root every time and grows ~N^{fit.exponent:.2f}; "
        "the new algorithm's complete-handler assumption needs 1 raise "
        "and 3(N-1) messages",
        # Every level re-raised, the cascade reached the root, CR costs more.
        all(
            raises >= chain and resolved == "Chain_0" and cr_msgs > new_msgs
            for _, chain, raises, cr_msgs, new_msgs, resolved in rows
        ) and fit.exponent > 2.5,
    )


# -- Section 4.3: the worked examples -----------------------------------------------


@experiment(
    "E7", "worked Example 1 (three objects, two concurrent exceptions)",
    ["quantity", "paper", "measured"],
)
def _e7() -> Table:
    result = example1_scenario().run()
    counts = result.messages_for_action("A1")
    (commit,) = result.commit_entries("A1")
    handlers = result.handlers_started("A1")
    raisers = sorted(e.subject for e in result.runtime.trace.by_category("raise"))
    one_handler = len(set(handlers.values())) == 1
    return Table(
        [
            ("raisers", "O1 (E1), O2 (E2)", ", ".join(raisers)),
            ("Exception msgs", 4, counts["EXCEPTION"]),
            ("ACK msgs", 4, counts["ACK"]),
            ("Commit msgs", 2, counts["COMMIT"]),
            ("total", "(N-1)(2P+1) = 10", sum(counts.values())),
            ("resolver", "O2 (name(O2) > name(O1))", commit.subject),
            ("same handler everywhere", "yes", str(one_handler)),
        ],
        "",
        raisers == ["O1", "O2"] and sum(counts.values()) == 10
        and commit.subject == "O2" and set(handlers) == {"O1", "O2", "O3"}
        and one_handler,
    )


@experiment(
    "E8", "worked Example 2 / Figure 4 (nested actions, belated O3, E3 signal)",
    ["quantity", "paper", "measured"],
)
def _e8() -> Table:
    result = example2_scenario().run()
    a1 = result.messages_for_action("A1")
    a3 = result.messages_for_action("A3")
    (commit,) = result.commit_entries("A1")
    handlers = result.handlers_started("A1")
    return Table(
        [
            ("A1 Exceptions", 3, a1["EXCEPTION"]),
            ("A1 HaveNested", 9, a1["HAVE_NESTED"]),
            ("A1 NestedCompleted", 9, a1["NESTED_COMPLETED"]),
            ("A1 ACKs", 12, a1["ACK"]),
            ("A1 Commits", 3, a1["COMMIT"]),
            ("A1 total", 36, sum(a1.values())),
            ("A3 Exception (cleaned)", 1, a3["EXCEPTION"]),
            ("A3 ACKs (never sent)", 0, a3["ACK"]),
            ("resolver", "O2", commit.subject),
            ("resolution inputs", "E1, E3", commit.details["raisers"] + " raised"),
            ("A2 status", "aborted", result.status("A2").value),
            ("A3 status", "aborted", result.status("A3").value),
        ],
        "",
        sum(a1.values()) == 36 and a3 == {"EXCEPTION": 1}
        and commit.subject == "O2" and commit.details["raisers"] == "O1,O2"
        and result.status("A2") is ActionStatus.ABORTED
        and result.status("A3") is ActionStatus.ABORTED
        and set(handlers) == {"O1", "O2", "O3", "O4"}
        and len(set(handlers.values())) == 1,
    )


# -- Figures 1–3 ---------------------------------------------------------------------


def _raise_time(result) -> float:
    return min(e.time for e in result.runtime.trace.by_category("raise"))


def _commit_latency(result) -> float:
    (commit,) = result.commit_entries("A1")
    return commit.time - _raise_time(result)


@experiment(
    "E9", "Figure 1: wait-for-nested vs abort-nested (N=5, P=1, Q=3)",
    ["nested dur D", "wait latency", "abort latency", "wait msgs", "abort msgs"],
)
def _e9() -> Table:
    n, p, q = 5, 1, 3

    def handler_latency(result) -> float:
        """Time from the raise to the last handler start for action A1."""
        return max(
            e.time for e in result.runtime.trace.by_category("handler.start")
            if e.details.get("action") == "A1"
        ) - _raise_time(result)

    rows = []
    # Every duration exceeds the raise instant (t=10): the nested actions
    # are genuinely in progress when the exception lands.
    for duration in (25.0, 50.0, 100.0, 200.0, 400.0):
        wait = general_case(
            n, p, q, policy=NestedPolicy.WAIT_FOR_NESTED, nested_work=duration
        ).run()
        abort = general_case(
            n, p, q, policy=NestedPolicy.ABORT_NESTED, nested_work=duration,
            abort_duration=1.0,
        ).run()
        rows.append((
            duration, f"{handler_latency(wait):.1f}", f"{handler_latency(abort):.1f}",
            wait.resolution_message_total(), abort.resolution_message_total(),
        ))
    wait_lat = [float(r[1]) for r in rows]
    abort_lat = [float(r[2]) for r in rows]
    return Table(
        rows,
        "wait latency tracks D (unbounded, unpredictable); abort latency "
        "is flat; abort pays 3Q(N-1) extra messages — the Figure 1 "
        "trade-off, decided for abortion by the paper",
        # Wait latency grows with D, abort stays flat; wait pays 3(N-1),
        # abort adds 3Q(N-1).
        wait_lat == sorted(wait_lat) and wait_lat[-1] > wait_lat[0] * 3
        and max(abort_lat) - min(abort_lat) < 1e-9
        and all(r[3] == 3 * (n - 1) for r in rows)
        and all(r[4] == general_messages(n, p, q) for r in rows),
    )


def _figure2_run(mode: str):
    """The Figure 2 banking action: ``normal``, ``forward`` (the handler
    repairs the account to a new valid state) or ``backward`` (the handler
    signals failure and the transaction rolls back)."""
    exc = declare_exception(f"Fig2Exc_{mode}")
    failure = declare_exception(f"Fig2Fail_{mode}")
    tree = ResolutionTree(
        UniversalException, {exc: UniversalException, failure: UniversalException}
    )
    acct = AtomicObject("acct", {"balance": 100})

    def repair(participant, exception):
        txn = participant.action_manager.txn_for("A1")
        txn.write(acct, "balance", 75)  # a new valid state, not the old one
        return HandlerResult(HandlerOutcome.COMPLETED)

    handlers = HandlerSet.completing_all(tree)
    if mode == "forward":
        handlers = handlers.with_override(exc, Handler(body=repair, duration=1))
    elif mode == "backward":
        handlers = handlers.with_override(exc, Handler.signalling(failure))
    work = [AtomicWrite(acct, "balance", 999), Compute(2.0)]
    if mode != "normal":
        work.append(Raise(exc))
    specs = [
        ParticipantSpec("O1", [ActionBlock("A1", work)], {"A1": handlers}),
        ParticipantSpec("O2", [ActionBlock("A1", [Compute(30.0)])], {"A1": handlers}),
    ]
    action = CAActionDef("A1", ("O1", "O2"), tree, transactional=True)
    return Scenario([action], specs, atomic_objects=[acct]).run(), acct


@experiment(
    "E10", "Figure 2: atomic-object outcomes per recovery mode",
    ["mode", "status (exp)", "status", "balance (exp)", "balance", "version"],
)
def _e10() -> Table:
    rows = []
    for mode, status, balance in (
        ("normal", "completed", 999),
        ("forward", "completed", 75),
        ("backward", "failed", 100),
    ):
        result, acct = _figure2_run(mode)
        rows.append((
            mode, status, result.status("A1").value, balance,
            acct.get("balance"), acct.version,
        ))
    return Table(
        rows,
        "forward recovery commits the handler's repaired state (75, a "
        "NEW value); failed recovery rolls back to the pre-action 100",
        all(r[1] == r[2] and r[3] == r[4] for r in rows),
    )


@experiment(
    "E11", "Figure 3: abortion ordering, shared responsibility, belatedness",
    ["problem / check", "paper", "measured"],
)
def _e11() -> Table:
    result = figure3_scenario(abort_duration=2.0).run()
    trace = result.runtime.trace
    order = {
        name: [
            e.details["action"] for e in trace.by_category("abort.done")
            if e.subject == name
        ]
        for name in ("O2", "O3")
    }
    o1_aborts = [e for e in trace.by_category("abort") if e.subject == "O1"]
    a2_aborters = {
        e.subject for e in trace.by_category("abort.done")
        if e.details["action"] == "A2"
    }
    one_handler = len(set(result.handlers_started("A1").values())) == 1
    return Table(
        [
            ("P1: abort order O2", "A3 then A2", " -> ".join(order["O2"])),
            ("P1: abort order O3", "A3 then A2", " -> ".join(order["O3"])),
            ("P2: A2 aborted by", "O2 and O3", ", ".join(sorted(a2_aborters))),
            ("P3: O1 abortion handlers run", 0, len(o1_aborts)),
            ("P3: terminates despite belated O1", "yes", str(result.all_finished())),
            ("same handler in all four", "yes", str(one_handler)),
        ],
        "",
        order == {"O2": ["A3", "A2"], "O3": ["A3", "A2"]}
        and a2_aborters == {"O2", "O3"} and not o1_aborts
        and result.all_finished() and one_handler,
    )


# -- Section 4.5 and the extensions ----------------------------------------------------


@experiment(
    "E12", "multicast variant: operations vs the base algorithm's unicasts",
    ["N", "P", "Q", "ops (model)", "ops", "unicasts", "base msgs", "winner"],
)
def _e12() -> Table:
    rows = []
    # (8, 4, 0) sits on the crossover boundary 2P+2Q == N.
    for n, p, q in (
        (8, 1, 0), (8, 2, 2), (8, 4, 0), (8, 6, 0), (8, 4, 4),
        (16, 2, 2), (16, 6, 6), (16, 12, 0),
    ):
        result = run_action("mc", n, p, q)
        unicasts = result.unicasts()
        base = general_messages(n, p, q)
        winner = (
            "multicast" if unicasts < base else "base" if base < unicasts else "tie"
        )
        rows.append((
            n, p, q, multicast_operations(n, p, q), result.messages(), unicasts,
            base, winner,
        ))
    return Table(
        rows,
        "no ACK kind exists in the variant; unicast crossover sits at "
        "2P + 2Q = N as derived in the module docs",
        all(
            ops == model and (
                2 * (p + q) == n
                or winner == ("multicast" if 2 * (p + q) > n else "base")
            )
            for n, p, q, model, ops, _, _, winner in rows
        ),
    )


@experiment(
    "E13", "zero resolution overhead on exception-free runs",
    ["N", "Q", "resolution msgs", "DONE msgs (sync)", "status"],
)
def _e13() -> Table:
    rows = []
    for n, q in ((2, 0), (4, 0), (8, 0), (8, 4), (16, 0), (16, 8), (32, 0)):
        result = no_exception_case(n, q=q).run()
        rows.append((
            n, q, result.resolution_message_total(),
            result.messages_by_kind().get("DONE", 0), result.status("A1").value,
        ))
    return Table(
        rows, "resolution kinds are exactly zero whenever nothing is raised",
        # The exit barrier still synchronises (DONE > 0).
        all(
            resolution == 0 and done > 0 and status == ActionStatus.COMPLETED.value
            for _, _, resolution, done, status in rows
        ),
    )


@experiment(
    "E14", "k-resolver redundancy (P=N/2, Q=N/4)",
    ["N", "P", "Q", "k=1", "k=2", "k=3", "Δ(2-1)", "Δ(3-2)", "commits@k=3"],
)
def _e14() -> Table:
    rows = []
    points: dict[int, list] = {1: [], 2: [], 3: []}
    exact = True
    for n in (6, 8, 12, 16, 24):
        p, q = max(1, n // 2), n // 4
        per_k = []
        for k in points:
            result = general_case(n, p, q, resolver_group_size=k).run()
            measured = result.resolution_message_total()
            exact &= measured == resolver_group_messages(n, p, q, k)
            per_k.append((measured, len(result.commit_entries("A1"))))
            points[k].append((n, measured))
        (k1, _), (k2, _), (k3, commits) = per_k
        rows.append((n, p, q, k1, k2, k3, k2 - k1, k3 - k2, commits))
    exponents = {k: fit_power_law(pts).exponent for k, pts in points.items()}
    return Table(
        rows,
        "each redundancy unit costs exactly N-1 extra messages; growth "
        + ", ".join(f"k={k}: ~N^{e:.2f}" for k, e in sorted(exponents.items())),
        # Each resolver adds one Commit round of N-1; still O(N^2) at every k.
        exact
        and all(r[6] == r[7] == r[0] - 1 and r[8] == 3 for r in rows)
        and all(1.7 < e < 2.3 for e in exponents.values()),
    )


@experiment(
    "E15a", "resolution latency vs latency distribution (N=6, P=2, Q=2)",
    ["latency model", "mean commit lat", "max", "messages"],
)
def _e15a() -> Table:
    rows = []
    for label, factory in (
        ("constant(2)", lambda: ConstantLatency(2.0)),
        ("uniform(1,3)", lambda: UniformLatency(1.0, 3.0)),
        ("exp(mean=2)", lambda: ExponentialLatency(2.0)),
    ):
        runs = [general_case(6, 2, 2, latency=factory(), seed=s).run() for s in range(12)]
        latencies = [_commit_latency(r) for r in runs]
        messages = {r.resolution_message_total() for r in runs}
        rows.append((
            label, f"{statistics.mean(latencies):.1f}", f"{max(latencies):.1f}",
            min(messages),
        ))
    return Table(
        rows, "counts identical across models; tails stretch recovery time",
        len({row[3] for row in rows}) == 1,
    )


def _depth_scenario(depth: int) -> Scenario:
    """O1 raises in A1 while O2 sits in a chain A1 ⊃ D1 ⊃ … ⊃ D_depth whose
    abortion handlers each take one time unit."""
    exc = declare_exception(f"DepthExc_{depth}")
    outer_tree = ResolutionTree(UniversalException, {exc: UniversalException})
    inner_tree = ResolutionTree(UniversalException)
    actions = [CAActionDef("A1", ("O1", "O2"), outer_tree)]
    handler_sets = {"A1": HandlerSet.completing_all(outer_tree)}
    abortion = {}
    chain = [f"D{i}" for i in range(1, depth + 1)]
    for i, name in enumerate(chain):
        actions.append(
            CAActionDef(name, ("O2",), inner_tree, parent=chain[i - 1] if i else "A1")
        )
        handler_sets[name] = HandlerSet.completing_all(inner_tree)
        abortion[name] = AbortionHandler.silent(duration=1.0)
    behaviour = [Compute(100.0)]
    for name in reversed(chain):
        behaviour = [ActionBlock(name, behaviour)]
    specs = [
        ParticipantSpec(
            "O1", [ActionBlock("A1", [Compute(10.0), Raise(exc)])],
            {"A1": HandlerSet.completing_all(outer_tree)},
        ),
        ParticipantSpec(
            "O2", [ActionBlock("A1", behaviour)], handler_sets,
            abortion_handlers=abortion,
        ),
    ]
    return Scenario(actions, specs)


@experiment(
    "E15b", "resolution latency vs nesting depth (1 time unit per abortion level)",
    ["depth d", "commit latency", "messages", "model"],
)
def _e15b() -> Table:
    rows = []
    for depth in (0, 1, 2, 4, 8, 16):
        result = _depth_scenario(depth).run()
        rows.append((
            depth, f"{_commit_latency(result):.1f}", result.resolution_message_total(),
            general_messages(2, 1, 1 if depth else 0),
        ))
    latencies = [float(r[1]) for r in rows]
    return Table(
        rows,
        "latency grows linearly with d (the un-estimable abortion "
        "delay the paper warns about); message count is depth-blind",
        # Depth adds latency, never messages beyond the Q=1 bill.
        latencies == sorted(latencies) and latencies[-1] - latencies[1] >= 14.0
        and all(row[2] == row[3] for row in rows),
    )


@experiment(
    "E15c", "recovery latency vs channel bandwidth (N=6, P=2, Q=2)",
    ["bandwidth", "commit latency", "messages"],
)
def _e15c() -> Table:
    rows = []
    for bandwidth in (256.0, 64.0, 16.0, 4.0):
        result = general_case(
            6, 2, 2,
            latency=BandwidthLatency(
                bandwidth=bandwidth, propagation=0.2, size_mean=64.0,
                size_spread=16.0,
            ),
        ).run()
        rows.append((
            bandwidth, f"{_commit_latency(result):.1f}",
            result.resolution_message_total(),
        ))
    latencies = [float(r[1]) for r in rows]
    return Table(
        rows,
        "Section 2.1's narrow channels: the count is fixed by the "
        "algorithm; the wire sets the recovery time",
        latencies == sorted(latencies) and len({r[2] for r in rows}) == 1,
    )


@experiment(
    "E16", "resolution over lossy channels (N=5, P=2, Q=2, ARQ transport)",
    ["loss", "logical msgs", "model", "retransmits", "dups dropped",
     "commit time", "guarantees"],
)
def _e16() -> Table:
    n, p, q = 5, 2, 2
    rows = []
    for loss in (0.0, 0.1, 0.2, 0.3, 0.5):
        scenario = general_case(n, p, q, seed=7)
        scenario.failure_plan = FailurePlan(
            drop_probability=loss, corrupt_probability=loss / 5
        )
        scenario.reliable = True
        scenario.ack_timeout = 4.0
        result = scenario.run(max_events=800_000)
        net = result.runtime.network
        (commit,) = result.commit_entries("A1")
        agreed = len(set(result.handlers_started("A1").values())) == 1
        rows.append((
            f"{loss:.0%}", result.resolution_message_total(), general_messages(n, p, q),
            net.retransmissions, net.duplicates_dropped, f"{commit.time:.1f}",
            "yes" if result.all_finished() and agreed else "NO",
        ))
    retransmits = [row[3] for row in rows]
    return Table(
        rows,
        "the Section 4.4 count is a property of the algorithm, not the "
        "channel: loss is absorbed entirely by the transport layer",
        # Retransmissions grow with loss; the lossless run needs none.
        all(row[1] == row[2] and row[6] == "yes" for row in rows)
        and retransmits[0] == 0 and retransmits[-1] > retransmits[1] > 0,
    )


@experiment(
    "E17", "crash-tolerant resolution (N=5, heartbeat detector)",
    ["scenario", "crashed", "survivors' commit", "resolver",
     "all survivors handled", "distinct verdicts"],
)
def _e17() -> Table:
    n = 5
    rows = []
    for label, crashed, raisers in (
        ("no crash", (), n),
        ("bystander (suspended) dies", ("O0004",), 2),
        ("a raiser dies", ("O0001",), n),
        ("the resolver dies", ("O0004",), n),
    ):
        result = run_action("ct", n, raisers, crashes=[(v, 10.2) for v in crashed])
        commits = [
            e for e in result.runtime.trace.by_category("ct.commit")
            if e.subject not in crashed
        ]
        rows.append((
            label, ",".join(crashed) or "-",
            f"t={commits[0].time:.1f}" if commits else "STALLED",
            commits[0].subject if commits else "-",
            "yes" if result.all_handled() else "NO",
            len(result.handled_exceptions()),
        ))
    # The base Section 4.2 algorithm with the would-be resolver (the
    # biggest raiser) crashed mid-protocol.
    scenario = all_raise_case(n)
    scenario.failure_plan = FailurePlan(crashes=[CrashWindow("O0004", 10.2)])
    base_commits = scenario.run(until=500.0, max_events=500_000).commit_entries("A1")
    base = f"commit at t={base_commits[0].time:.1f}" if base_commits else "STALLED"
    return Table(
        rows,
        f"base Section 4.2 algorithm on the resolver-crash case: {base} "
        "(it waits for the dead peer's ACK forever); the variant re-elects "
        "and commits",
        base == "STALLED"
        and all(r[2] != "STALLED" and r[4] == "yes" and r[5] == 1 for r in rows)
        # Resolver crash: the next-biggest raiser took over.
        and rows[-1][3] == "O0003",
    )


@experiment(
    "E18", "centralised coordinator vs the decentralised algorithm (P=N)",
    ["N", "central msgs", "model 3N-2+P", "decentral msgs",
     "model (N-1)(2N+1)", "coordinator's send share"],
)
def _e18() -> Table:
    rows = []
    for n in (4, 8, 16, 32):
        central = run_action("cd", n, n)
        breakdown = traffic_breakdown(central.runtime.trace, kinds=set(CD_KINDS))
        share = breakdown.by_sender.get("coord", 0) / breakdown.total()
        rows.append((
            n, central.messages(), centralized_messages(n, n),
            all_raise_case(n).run().resolution_message_total(),
            general_messages(n, n, 0), f"{share:.0%}",
        ))
    crash = run_action("cd", 6, 2, until=400.0, crashes=[("coord", 10.5)])
    outcome = "STALLED" if not crash.all_handled() else "recovered"
    return Table(
        rows,
        "centralised is linear but funnels through one process; "
        f"coordinator crash mid-resolution: {outcome} — the "
        "decentralised algorithm elects its resolver instead",
        # Exact on both sides, the coordinator cheaper in messages but
        # originating a large constant share of them, and a crash stalls it.
        outcome == "STALLED"
        and all(
            central == c_model and decentral == d_model and central < decentral
            and float(share.strip("%")) >= 40.0
            for _, central, c_model, decentral, d_model, share in rows
        ),
    )


@experiment(
    "E25", "§4.4 scaling curve past the paper's range (COUNTS level)",
    ["N", "P", "Q", "events", "measured", "model", "ok"],
)
def _e25() -> Table:
    rows = []
    for n in (64, 128, 256, 384, 512):
        p, q = max(1, n // 2), n // 4
        result = general_case(n, p=p, q=q, trace_level=TraceLevel.COUNTS).run(
            max_events=20_000_000
        )
        measured, model = result.resolution_message_total(), general_messages(n, p, q)
        rows.append((
            n, p, q, result.runtime.sim.events_executed, measured, model,
            "yes" if measured == model else "NO",
        ))
    return Table(
        rows, "single cells with P=N/2, Q=N/4 up to N=512",
        all(row[-1] == "yes" for row in rows),
    )
