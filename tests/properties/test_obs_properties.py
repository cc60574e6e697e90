"""Observability must not change physics, and spans must form a forest.

Two properties over every protocol variant in the repo:

* **Level agreement** — a FULL run (entries recorded, so a span forest to
  read) and a COUNTS run (counters only) of the same seeded scenario must
  report identical protocol message counts *and* identical metrics
  snapshots.  Any metric accidentally gated behind the FULL-only records,
  or any record whose writing perturbs the simulation, breaks this.
* **Forest shape** — span parent ids must form a forest: no orphan
  parents, no cycles, children within their parents' lifetime, and in a
  run that terminates (fault-free, or lossy under the reliable transport)
  every span closed by the end.
* **A view, not a second log** — the forest is derived from the trace on
  read: reading it mid-run changes nothing, a COUNTS run has none and
  writes none of the FULL-only records, and no engine or substrate module
  mentions a span collector.

The scenario sample is seeded from the fault-campaign matrix so the
shapes exercised here are the same ones the campaign engine sweeps.
"""

import itertools
import re
from pathlib import Path

import pytest

from repro.core.variants import run_action
from repro.net.failures import FailurePlan
from repro.net.latency import ConstantLatency
from repro.net.message import reset_msg_ids
from repro.obs import spans_to_jsonl
from repro.simkernel.trace import TraceLevel
from repro.workloads.campaigns import default_matrix
from repro.workloads.generator import general_case

#: (n, p, q) shapes drawn from the seeded smoke campaign matrix — the
#: same sample the CI fault campaign runs, deduplicated.
CAMPAIGN_SHAPES = sorted({
    (cell.n, cell.p, cell.q)
    for cell in default_matrix(smoke=True, seed=0)
    if cell.family == "paper"
})

FAULT_KNOBS = (
    {},  # fault-free
    {"failure_plan": FailurePlan(drop_probability=0.2), "reliable": True},
)


def _run_variant(variant: str, n: int, p: int, q: int, level, knobs):
    """Run one variant at one trace level; return (runtime, message total)."""
    if variant == "base":
        result = general_case(
            n, p, q, seed=0, latency=ConstantLatency(1.0),
            trace_level=level, ack_timeout=2.0, max_retries=25, **knobs,
        ).run(until=400.0)
        return result.runtime, result.resolution_message_total()
    if variant == "ct":
        result = run_action(
            "ct", n, p, q, seed=0, latency=ConstantLatency(1.0),
            trace_level=level, ack_timeout=2.0, max_retries=25,
            hb_timeout=12.0, **knobs,
        )
        return result.runtime, result.messages()
    if variant == "mc":
        result = run_action(
            "mc", n, p, q, seed=0, latency=ConstantLatency(1.0),
            trace_level=level, ack_timeout=2.0, max_retries=25, **knobs,
        )
        return result.runtime, result.messages()
    if variant == "cd":
        result = run_action(
            "cd", n, p, seed=0, latency=ConstantLatency(1.0),
            trace_level=level, ack_timeout=2.0, max_retries=25, **knobs,
        )
        return result.runtime, result.messages()
    if variant == "cr":
        result = run_action(
            "cr", n, p, seed=0, latency=ConstantLatency(1.0),
            trace_level=level, ack_timeout=2.0, max_retries=25, **knobs,
        )
        return result.runtime, result.messages()
    raise ValueError(variant)


class TestFullCountsAgreement:
    @pytest.mark.parametrize("variant", ["base", "ct", "mc", "cd"])
    def test_counts_and_metrics_agree_between_levels(self, variant):
        for n, p, q in CAMPAIGN_SHAPES:
            for knobs in FAULT_KNOBS:
                full_rt, full_total = _run_variant(
                    variant, n, p, q, TraceLevel.FULL, knobs
                )
                counts_rt, counts_total = _run_variant(
                    variant, n, p, q, TraceLevel.COUNTS, knobs
                )
                shape = f"{variant} n={n} p={p} q={q} knobs={sorted(knobs)}"
                assert full_total == counts_total, shape
                assert (
                    full_rt.metrics_snapshot() == counts_rt.metrics_snapshot()
                ), shape
                # COUNTS runs must not collect spans; FULL runs must.
                assert len(counts_rt.spans) == 0, shape
                assert len(full_rt.spans) > 0, shape


class TestSpanForest:
    @pytest.mark.parametrize("variant", ["base", "ct", "mc", "cd", "cr"])
    def test_parent_ids_form_a_closed_forest(self, variant):
        for (n, p, q), knobs in itertools.product(CAMPAIGN_SHAPES, FAULT_KNOBS):
            runtime, _ = _run_variant(variant, n, p, q, TraceLevel.FULL, knobs)
            spans = runtime.spans
            shape = f"{variant} n={n} p={p} q={q} knobs={sorted(knobs)}"
            assert spans.forest_problems() == [], shape
            # Runs that terminate leave nothing open.
            assert spans.open_spans() == [], shape
            # Every parent id resolves and every child starts within its
            # parent's lifetime (forest_problems already guards cycles).
            for span in spans:
                if span.parent_id is None:
                    continue
                parent = spans.get(span.parent_id)
                assert parent is not None, shape
                assert parent.start <= span.start, shape
                if parent.closed and span.closed:
                    assert span.end <= parent.end, shape

    def test_crashed_member_leaves_open_spans(self):
        """A crash shows up as *open* spans — the stall diagnostic."""
        from repro.objects.naming import canonical_name

        victim = canonical_name(2)
        result = run_action("ct", 4, 2, crashes=[(victim, 12.0)])
        open_subjects = {
            span.subject for span in result.runtime.spans.open_spans()
        }
        assert victim in open_subjects
        # Survivors' resolution spans all closed (the CT contract).
        survivors = {canonical_name(i) for i in range(4)} - {victim}
        assert not (open_subjects & survivors)


class TestForestIsAViewOfTheTrace:
    def test_reading_mid_run_changes_nothing(self):
        def built():
            reset_msg_ids()  # cause ids are message ids: number both runs alike
            scenario = general_case(5, 2, 2, seed=0, latency=ConstantLatency(1.0))
            return scenario.build()[0]

        once = built()
        once.run()
        peeked = built()
        peeked.run(until=11.5)  # raised, resolution under way
        assert peeked.spans.open_spans()
        assert len(peeked.spans) < len(once.spans)
        peeked.run()
        assert spans_to_jsonl(peeked.spans) == spans_to_jsonl(once.spans)
        assert peeked.trace.dump() == once.trace.dump()

    @pytest.mark.parametrize("variant", ["base", "ct", "mc", "cd"])
    def test_counts_run_has_no_spans_and_no_full_only_records(self, variant):
        runtime, _ = _run_variant(variant, 5, 2, 1, TraceLevel.COUNTS, {})
        assert len(runtime.spans) == 0
        assert runtime.trace.count("state") == 0
        if variant != "base":  # base counts these at every level
            assert runtime.trace.count("resolution.join") == 0
            assert runtime.trace.count("raise") == 0
            assert runtime.trace.count("abort.start") == 0
            assert runtime.trace.count("abort.done") == 0

    def test_no_engine_or_substrate_writes_spans(self):
        """Engines write trace records; nothing under core/, net/ or
        objects/ may hold a collector again (ISSUE 22)."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        pattern = re.compile(
            r"spans\.(begin|end|event)\(|_spans\b|span_id|_span_ids"
        )
        offenders = [
            f"{path.relative_to(src)}:{number}"
            for package in ("core", "net", "objects")
            for path in sorted((src / package).rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []
