"""Self-contained experiment report generation.

``python -m repro report`` reruns the core quantitative experiments (the
exact-count checks plus the baseline/variant comparisons) without pytest
and renders one markdown report — the quickest way for a downstream user
to confirm the reproduction holds on their machine.

The pytest-benchmark harness under ``benchmarks/`` remains the canonical,
assertion-bearing version of each experiment; this module favours breadth
and readability over timing statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.fitting import PowerLawFit, fit_power_law
from repro.analysis.formulas import (
    case1_messages,
    case2_messages,
    case3_messages,
    resolver_group_messages,
)


@dataclass
class ReportSection:
    title: str
    headers: list[str]
    rows: list[tuple]
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


def _exact_cases(sweep: list[int]) -> list[ReportSection]:
    from repro.workloads.generator import (
        all_nested_case,
        all_raise_case,
        single_exception_case,
    )

    sections = []
    cases: list[tuple[str, Callable, Callable]] = [
        ("E1 — one exception, no nesting: 3(N-1)",
         single_exception_case, case1_messages),
        ("E2 — one exception, all others nested: 3N(N-1)",
         all_nested_case, case2_messages),
        ("E3 — all N raise: (N-1)(2N+1)",
         all_raise_case, case3_messages),
    ]
    for title, scenario_fn, model_fn in cases:
        rows = []
        clean = True
        for n in sweep:
            measured = scenario_fn(n).run().resolution_message_total()
            model = model_fn(n)
            clean &= measured == model
            rows.append((n, model, measured, "OK" if measured == model else "X"))
        sections.append(
            ReportSection(
                title, ["N", "paper", "measured", ""], rows,
                "exact match" if clean else "MISMATCH",
            )
        )
    return sections


def _general_formula() -> ReportSection:
    from repro.workloads.sweeps import full_grid, sweep_general

    sweep = sweep_general(full_grid([4, 6, 8]))
    mismatches = sweep.mismatches()
    sample = [r for r in sweep.rows() if r[0] == 8][:6]
    return ReportSection(
        "E4 — general formula (N-1)(2P+3Q+1)",
        ["N", "P", "Q", "paper", "measured", ""],
        sample,
        f"{len(sweep.points)} grid points, {len(mismatches)} mismatches",
        notes="(sample rows shown; the verdict covers the full grid)",
    )


def cr_comparison(sweep) -> list[tuple[int, int, int]]:
    """The paper's headline comparison: all N participants raise at once,
    under the CR baseline and under the new algorithm — ``(n, cr messages,
    new messages)`` per N.  The report, ``repro compare`` and
    ``bench_vs_cr_baseline`` all print this one sweep."""
    from repro.core.variants import run_action

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


def _cr_comparison(sweep: list[int]) -> ReportSection:
    rows = cr_comparison(sweep)
    cr_fit, new_fit = cr_growth(rows)
    ok = cr_fit.exponent > 2.5 and 1.7 < new_fit.exponent < 2.3
    return ReportSection(
        "E5 — vs the Campbell-Randell baseline",
        ["N", "CR", "new", "ratio"],
        [(n, cr, new, f"{cr / new:.1f}x") for n, cr, new in rows],
        f"CR ~ N^{cr_fit.exponent:.2f}, new ~ N^{new_fit.exponent:.2f} "
        f"(paper: O(N^3) vs O(N^2)) — "
        + ("shape holds" if ok else "SHAPE MISMATCH"),
    )


def _worked_examples() -> ReportSection:
    from repro.workloads.generator import example1_scenario, example2_scenario

    ex1 = example1_scenario().run()
    ex2 = example2_scenario().run()
    (c1,) = ex1.commit_entries("A1")
    (c2,) = ex2.commit_entries("A1")
    rows = [
        ("Example 1 total", 10, ex1.resolution_message_total()),
        ("Example 1 resolver", "O2", c1.subject),
        ("Example 2 A1 total", 36, sum(ex2.messages_for_action("A1").values())),
        ("Example 2 resolver", "O2", c2.subject),
        ("Example 2 raisers", "O1,O2", c2.details["raisers"]),
    ]
    ok = all(str(row[1]) == str(row[2]) for row in rows)
    return ReportSection(
        "E7/E8 — the worked examples",
        ["quantity", "paper", "measured"],
        rows,
        "exact match" if ok else "MISMATCH",
    )


def _variants(n: int = 8) -> ReportSection:
    from repro.core.variants import VARIANTS, run_action

    rows = []
    for tag, spec in VARIANTS.items():
        if spec.expected is None:
            continue  # measured only: no model to hold it against
        q = 2 if spec.nests else 0
        rows.append(
            (f"{tag}: {spec.closed_form}", spec.expected(n, 2, q),
             run_action(tag, n, 2, q).messages())
        )
    rows.append(
        ("k=2 resolvers: (N-1)(2P+3Q+2) messages",
         resolver_group_messages(n, 2, 2, 2),
         run_action("base", n, 2, 2, resolver_group_size=2).messages())
    )
    ok = all(row[1] == row[2] for row in rows)
    return ReportSection(
        f"E12/E14/E18 — algorithm variants (N={n})",
        ["variant", "model", "measured"],
        rows,
        "exact match" if ok else "MISMATCH",
    )


def generate_report(sweep: list[int] | None = None) -> str:
    """Run the report experiments and return the markdown text."""
    sweep = sweep or [2, 4, 8, 16]
    sections: list[ReportSection] = []
    sections.extend(_exact_cases(sweep))
    sections.append(_general_formula())
    sections.append(_cr_comparison([4, 8, 16]))
    sections.append(_worked_examples())
    sections.append(_variants())
    verdicts = [s.verdict for s in sections]
    healthy = not any("MISMATCH" in v or v.endswith("X") for v in verdicts)
    header = [
        "# Reproduction report",
        "",
        "Romanovsky, Xu & Randell — *Exception Handling and Resolution in "
        "Distributed Object-Oriented Systems* (ICDCS 1996).",
        "",
        f"**Overall: {'all claims hold' if healthy else 'DISCREPANCIES FOUND'}**",
        "",
    ]
    return "\n".join(header) + "\n" + "\n".join(s.render() for s in sections)
