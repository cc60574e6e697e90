"""The registry is the only list of variants, and ``run_action`` the only
way to run one: every consumer must agree with each row."""

import random

import pytest

from repro.cli import build_parser
from repro.core.participant import CAParticipant
from repro.core.variants import SERVABLE, VARIANTS, Member, run_action
from repro.net.latency import UniformLatency
from repro.rt.harness import CONFORMANCE_VARIANTS, conformance_cells, fault_cells
from repro.service.loadgen import LoadSpec, sample_request
from repro.service.protocol import ActionRequest, ServiceProtocolError
from repro.simkernel.trace import TraceLevel
from repro.workloads.campaigns import (
    INVARIANT_VIOLATION,
    CampaignCell,
    default_matrix,
    observe_cell,
    run_cell,
    stall_expected,
)


def variants_table() -> str:
    """The registry as the markdown table README.md and DESIGN.md carry
    (print this to refresh them after editing a row)."""
    lines = [
        "| variant | what | counts | nests | detects failures | extra options |",
        "|---|---|---|---|---|---|",
    ]
    for spec in VARIANTS.values():
        lines.append(
            f"| `{spec.tag}` | {spec.source} | {spec.closed_form} "
            f"| {'yes' if spec.nests else 'no'} "
            f"| {'yes' if spec.detects_failures else 'no'} "
            f"| {', '.join(f'`{o}`' for o in spec.options) or '—'} |"
        )
    return "\n".join(lines)


def _parses(*argv: str) -> bool:
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


@pytest.mark.parametrize("tag", VARIANTS)
class TestEveryConsumerReadsTheRow:
    def test_service_accepts_exactly_the_servable(self, tag):
        header = {"id": 1, "variant": tag, "n": 4, "p": 2}
        if VARIANTS[tag].servable:
            assert ActionRequest.from_header(header).variant == tag
        else:
            with pytest.raises(ServiceProtocolError, match="unknown variant"):
                ActionRequest.from_header(header)

    def test_clean_cell_measures_the_closed_form(self, tag):
        spec = VARIANTS[tag]
        q = 1 if spec.nests else 0
        obs = observe_cell(CampaignCell("paper", tag, "none", 4, 2, q, seed=0))
        assert obs.finished and len(set(obs.handled.values())) == 1
        if spec.expected is None:
            assert obs.expected is None and obs.measured > 0
        else:
            assert obs.measured == obs.expected == spec.expected(4, 2, q)

    def test_cli_offers_exactly_the_servable(self, tag):
        servable = VARIANTS[tag].servable
        scenario = "general" if tag == "base" else tag  # base's older CLI name
        assert _parses("service", "load", "--variant", tag) is servable
        assert _parses("service", "trace", "--variant", tag) is servable
        assert _parses("metrics", scenario) is servable
        assert _parses("trace", scenario) is servable

    def test_matrices_cover_it(self, tag):
        assert tag in CONFORMANCE_VARIANTS
        assert any(cell.variant == tag for cell in conformance_cells())
        in_matrix = any(cell.variant == tag for cell in default_matrix(smoke=True))
        assert in_matrix is VARIANTS[tag].servable is (tag in SERVABLE)

    def test_nested_members_only_where_it_nests(self, tag):
        spec = VARIANTS[tag]
        offered = [
            cell.q for cell in (*conformance_cells(ns=(3, 5)), *fault_cells())
            if cell.variant == tag
        ]
        if spec.servable:
            rng = random.Random(0)
            offered += [
                sample_request(rng, LoadSpec(variant=tag, mix="uniform"), i).q
                for i in range(50)
            ]
        assert any(offered) is spec.nests
        if not spec.nests:
            with pytest.raises(ValueError, match="flat variant"):
                run_action(tag, 4, 2, 1)

    def test_a_crash_stalls_it_unless_it_detects_failures(self, tag):
        cell = CampaignCell("paper", tag, "crash_participant", 4, 2, 0)
        assert stall_expected(cell) is not VARIANTS[tag].detects_failures

    def test_docs_carry_its_row(self, tag):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        (row,) = [r for r in variants_table().splitlines() if f"| `{tag}` |" in r]
        for doc in ("README.md", "DESIGN.md"):
            assert row in (root / doc).read_text(), f"{doc} lacks the {tag} row"


#: ct under false suspicion: two resolvers commit and three members upgrade.
_KNOBS = {
    "ct": dict(
        seed=2, latency=UniformLatency(0.5, 3.0), hb_interval=1.0, hb_timeout=2.0,
    ),
}


def _run(tag: str, trace_level=TraceLevel.FULL):
    q = 1 if VARIANTS[tag].nests else 0
    return run_action(tag, 4, 2, q, trace_level=trace_level, **_KNOBS.get(tag, {}))


@pytest.mark.parametrize("tag", VARIANTS)
class TestOneHandledView:
    """``handled()`` / ``double_handled()`` read the verdict each
    participant holds, never the trace."""

    def test_full_and_counts_give_the_same_answer(self, tag):
        full, counts = _run(tag), _run(tag, TraceLevel.COUNTS)
        assert counts.runtime.trace.by_category("msg.send") == []
        if tag == "ct":
            assert len(full.runtime.trace.by_category("ct.handle_upgrade")) == 3
        assert full.handled() == counts.handled()
        assert len(full.handled()) == 4
        assert full.double_handled() == counts.double_handled() == []

    def test_a_forced_second_activation_is_named(self, tag):
        run = _run(tag)
        name, participant = next(iter(run.participants.items()))
        if isinstance(participant, CAParticipant):
            # base: the same handler logged twice in one incarnation
            last = participant.handler_log[-1]
            participant.handler_log.append(last)
            want = f"{name} handled twice in {last.action} incarnation {last.incarnation}"
        elif isinstance(participant, Member):
            participant._handle(participant.handled)
            want = f"{name} activated a handler twice"
        else:  # cr: resolve a second time
            participant.handled = None
            participant._maybe_resolve()
            want = f"{name} activated a handler twice"
        assert run.double_handled() == [want]

    def test_the_seeded_double_is_flagged(self, tag):
        q = 1 if VARIANTS[tag].nests else 0
        outcome = run_cell(
            CampaignCell("paper", tag, "none", 4, 2, q, sabotage="double")
        )
        assert outcome.classification == INVARIANT_VIOLATION
        assert outcome.violations == (
            "exactly-once violated: sabotage: seeded double activation",
        )


class TestRunActionRejects:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'zz'"):
            run_action("zz", 3, 1)

    @pytest.mark.parametrize("tag", VARIANTS)
    def test_bad_shape(self, tag):
        with pytest.raises(ValueError, match="bad raiser count 0 for n=3"):
            run_action(tag, 3, 0)
        with pytest.raises(ValueError, match="bad raiser count 4 for n=3"):
            run_action(tag, 3, 4)
        with pytest.raises(ValueError, match="bad nested count 2 for n=3, raisers=2"):
            run_action(tag, 3, 2, 2)

    @pytest.mark.parametrize("tag", VARIANTS)
    def test_unknown_crash_victim(self, tag):
        with pytest.raises(ValueError, match=r"cannot crash unknown \w+: \['NOPE'\]"):
            run_action(tag, 3, 1, crashes=[("NOPE", 5.0)])

    @pytest.mark.parametrize("tag", VARIANTS)
    def test_option_the_variant_does_not_declare(self, tag):
        with pytest.raises(TypeError, match=f"{tag} takes no option .'coordinator_crashes_at'"):
            run_action(tag, 3, 1, coordinator_crashes_at=10.5)

    def test_the_coordinator_is_crashed_by_name(self):
        run = run_action("cd", 4, 2, crashes=[("coord", 10.5)], until=100.0)
        assert run.crashed == ("coord",) and not run.all_handled()
        (crash,) = run.runtime.trace.by_category("node.crash")
        assert crash.subject == "node:coord"

    def test_restart_must_follow_the_crash(self, tmp_path):
        with pytest.raises(ValueError, match="must follow crash_at"):
            run_action("ct", 3, 1, crashes=[("O0001", 12.0)], restart_at=11.0)


def test_frame_mode_flag_is_gone():
    cell = "paper:base:none:n3p1q0:s0"
    assert _parses("rt", "run", "--cell", cell, "--tcp")
    assert not _parses("rt", "run", "--cell", cell, "--mode", "pickle")


class TestSharedSkeleton:
    """The immutable slice of a scenario is made once per shape."""

    def test_flat_tree_is_one_object_per_shape(self):
        from repro.core.variants import flat_tree

        tree, leaves, handlers = flat_tree(3, "CT")
        assert flat_tree(3, "CT") == (tree, leaves, handlers)
        assert flat_tree(3, "CT")[0] is tree
        assert [leaf.name() for leaf in leaves] == ["CT_0", "CT_1", "CT_2"]
        assert tree.members == {tree.root, *leaves}
        handlers.validate_complete(tree)
        # A bigger tree of the same prefix reuses the leaf classes.
        assert flat_tree(4, "CT")[1][:3] == leaves
        assert flat_tree(3, "MC")[1][0] is not leaves[0]

    def test_generated_leaves_pickle(self):
        import pickle

        from repro.core.variants import flat_tree

        run_action("ct", 3, 2)
        leaves = flat_tree(2, "CT")[1]
        run_action("ct", 3, 2)  # a second run redeclares nothing
        assert [pickle.loads(pickle.dumps(leaf)) for leaf in leaves] == list(leaves)

    def test_runs_share_the_tree_and_nothing_mutable(self):
        first, second = run_action("cd", 3, 2), run_action("cd", 3, 2)
        a, b = first.participants["O0000"], second.participants["O0000"]
        assert a.tree is b.tree and a.handlers is b.handlers
        assert first.runtime is not second.runtime and a is not b
        assert first.handled() == second.handled()

    def test_general_case_nested_actions_share_the_root_only_tree(self):
        from repro.workloads.generator import general_case

        one, two = general_case(4, 1, 2), general_case(5, 2, 2)
        nested = [
            s.registry.get(name)
            for s in (one, two) for name in s.registry.names() if name != "A1"
        ]
        assert len(nested) == 4
        assert len({id(d.tree) for d in nested}) == 1
        assert len(nested[0].tree) == 1



def test_explorer_smoke_certifies_base_and_ct_whatever_the_registry_order():
    """The CI step is named "base + ct"; it once sliced VARIANTS by position
    and, after a reorder, certified cd instead of ct."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_explore.py"
    spec = importlib.util.spec_from_file_location("bench_explore_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.dfs_cells(3, module.SMOKE_VARIANTS) == (
        "paper:base:none:n3p1q1:s0", "paper:ct:none:n3p1q1:s0",
    )
    assert set(module.SMOKE_VARIANTS) <= set(VARIANTS)
    assert len(module.dfs_cells(3)) == len(VARIANTS)
