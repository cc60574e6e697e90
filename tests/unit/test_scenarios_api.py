"""Unit tests for the Scenario API surface and the ``ActionRun`` it returns."""

import pytest

from repro.core.action import CAActionDef
from repro.core.messages import RESOLUTION_KINDS
from repro.core.variants import ActionRun, run_action
from repro.exceptions import HandlerSet, ResolutionTree, UniversalException
from repro.simkernel.scheduler import SimulationError
from repro.workloads import ActionBlock, ParticipantSpec, Scenario
from repro.workloads.generator import (
    BUDGET_FACTOR,
    example1_scenario,
    expected_general_messages,
    general_case,
    single_exception_case,
)
from repro.workloads.scenarios import DEFAULT_MAX_EVENTS


def tree():
    return ResolutionTree(UniversalException)


class TestScenarioValidation:
    def test_duplicate_participant_names_rejected(self):
        action = CAActionDef("A1", ("O1",), tree())
        spec = ParticipantSpec(
            "O1", [ActionBlock("A1", [])], {"A1": HandlerSet.completing_all(tree())}
        )
        with pytest.raises(ValueError, match="duplicate"):
            Scenario([action], [spec, spec])

    def test_duplicate_action_names_rejected(self):
        action = CAActionDef("A1", ("O1",), tree())
        with pytest.raises(ValueError, match="duplicate action"):
            Scenario([action, action], [])

    def test_incomplete_handler_set_rejected_at_entry(self):
        from repro.exceptions import declare_exception
        from repro.exceptions.handlers import IncompleteHandlerSetError

        exc = declare_exception("ApiExc")
        rich_tree = ResolutionTree(UniversalException, {exc: UniversalException})
        action = CAActionDef("A1", ("O1",), rich_tree)
        spec = ParticipantSpec(
            "O1",
            [ActionBlock("A1", [])],
            {"A1": HandlerSet({UniversalException: None})},  # type: ignore
        )
        scenario = Scenario([action], [spec])
        with pytest.raises(IncompleteHandlerSetError):
            scenario.run()

    def test_build_allows_stepping_manually(self):
        scenario = single_exception_case(3)
        runtime, manager, participants, runners = scenario.build()
        runtime.run(until=5.0)
        assert all(not r.finished for r in runners.values())
        runtime.run()
        assert all(r.finished for r in runners.values())


class TestScenarioRunIsAnActionRun:
    @pytest.mark.parametrize("shape", [(5, 2, 1), (4, 1, 0), (6, 3, 2)])
    def test_general_case_run_equals_run_action_base(self, shape):
        run = general_case(*shape).run()
        assert isinstance(run, ActionRun) and run.variant == "base"
        via = run_action("base", *shape)
        assert run.handled() == via.handled() and len(run.handled()) == shape[0]
        assert run.messages() == via.messages() == expected_general_messages(*shape)
        assert run.duration == via.duration
        assert run.crashed == via.crashed == ()

    @pytest.mark.parametrize("at", [11.0, 30.0])
    def test_crashed_names_the_scenarios_victims(self, at):
        run = general_case(4, 1, 0, crashes=[("O0003", at)]).run(until=300.0)
        assert run.crashed == ("O0003",)
        # mid-resolution a base crash stalls the survivors; after it, none
        assert run.all_finished() is (at == 30.0)

    def test_all_finished_judges_survivors_only(self):
        run = general_case(4, 1, 0).run()
        run.runners["O0003"].finished = False
        assert not run.all_finished()
        run.crashed = ("O0003",)
        assert run.all_finished()


class TestScenarioResultHelpers:
    def test_messages_by_kind_includes_sync(self):
        result = single_exception_case(3).run()
        counts = result.messages_by_kind()
        assert counts["DONE"] > 0
        assert result.resolution_message_total() == sum(
            counts[k] for k in RESOLUTION_KINDS if k in counts
        )

    def test_messages_for_action_excludes_other_actions(self):
        result = single_exception_case(3).run()
        assert sum(result.messages_for_action("not-there").values()) == 0

    def test_commit_entries_shape(self):
        result = example1_scenario().run()
        (entry,) = result.commit_entries("A1")
        assert entry.details["action"] == "A1"
        assert "exception" in entry.details

    def test_duration_tracks_virtual_time(self):
        result = single_exception_case(2).run()
        assert result.duration == result.runtime.sim.now

    def test_handled_exception_none_for_clean_run(self):
        from repro.workloads.generator import no_exception_case

        result = no_exception_case(2).run()
        assert result.handled_exception("A1") is None


class TestEventBudget:
    """``Scenario.run``'s default livelock guard scales with the workload."""

    def test_general_case_budget_follows_the_model(self):
        # The E25 cell executes 722,559 events: the old flat 500,000 called
        # it a livelock.  Checked on the derived value, without running it.
        scenario = general_case(512, 256, 128)
        modelled = expected_general_messages(512, 256, 128) + 512 * 511
        assert modelled == 458_367 + 261_632
        assert scenario.max_events == BUDGET_FACTOR * modelled
        assert scenario.max_events > 722_559

    def test_small_actions_keep_the_floor(self):
        assert general_case(8, 2, 2).max_events == DEFAULT_MAX_EVENTS
        assert general_case(3, 0, 0).max_events == DEFAULT_MAX_EVENTS
        assert example1_scenario().max_events == DEFAULT_MAX_EVENTS

    def _livelocked(self, monkeypatch):
        """A toy scenario whose build arms an event that re-arms itself."""
        scenario = general_case(3, 1, 0)
        build = scenario.build
        seen = {}

        def build_and_spin():
            built = build()
            sim = seen["sim"] = built[0].sim

            def spin():
                sim.schedule(1.0, spin)

            sim.schedule(0.0, spin)
            return built

        monkeypatch.setattr(scenario, "build", build_and_spin)
        return scenario, seen

    def test_livelock_still_trips_the_default_budget(self, monkeypatch):
        scenario, seen = self._livelocked(monkeypatch)
        with pytest.raises(SimulationError, match="likely livelock"):
            scenario.run()
        assert seen["sim"].events_executed == DEFAULT_MAX_EVENTS

    def test_explicit_budget_wins(self, monkeypatch):
        scenario, seen = self._livelocked(monkeypatch)
        with pytest.raises(SimulationError, match="after 1000 events"):
            scenario.run(max_events=1000)
        assert seen["sim"].events_executed == 1000
