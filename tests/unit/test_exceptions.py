"""Unit tests for the exception model: declarations, tree, contexts, handlers."""

import pytest

from repro.exceptions import (
    AbortionException,
    ActionException,
    ActionFailureException,
    ExceptionContext,
    ExceptionContextStack,
    HandlerOutcome,
    HandlerSet,
    ReducedHandlerSet,
    ResolutionTree,
    TreeValidationError,
    UniversalException,
    declare_exception,
)
from repro.exceptions.context import ContextError
from repro.exceptions.handlers import (
    Handler,
    HandlerResult,
    IncompleteHandlerSetError,
)


# The paper's Section 3.2 aircraft example, declared by subtyping.
class EmergencyEngineLoss(UniversalException):
    pass


class LeftEngine(EmergencyEngineLoss):
    pass


class RightEngine(EmergencyEngineLoss):
    pass


class Hydraulics(UniversalException):
    pass


def aircraft_tree() -> ResolutionTree:
    return ResolutionTree(
        UniversalException,
        {
            EmergencyEngineLoss: UniversalException,
            LeftEngine: EmergencyEngineLoss,
            RightEngine: EmergencyEngineLoss,
            Hydraulics: UniversalException,
        },
    )


class TestDeclarations:
    def test_special_exceptions_are_action_exceptions(self):
        assert issubclass(AbortionException, ActionException)
        assert issubclass(ActionFailureException, ActionException)
        assert issubclass(UniversalException, ActionException)

    def test_declare_exception(self):
        exc = declare_exception("Overload", description="queue overflow")
        assert issubclass(exc, UniversalException)
        assert exc.name() == "Overload"
        assert exc.description == "queue overflow"

    def test_declare_exception_custom_parent(self):
        parent = declare_exception("Parent")
        child = declare_exception("Child", parent=parent)
        assert issubclass(child, parent)

    def test_declare_exception_invalid_name(self):
        with pytest.raises(ValueError):
            declare_exception("not an identifier")

    def test_declare_exception_bad_parent(self):
        with pytest.raises(TypeError):
            declare_exception("X", parent=ValueError)


class TestResolutionTree:
    def test_members_and_contains(self):
        tree = aircraft_tree()
        assert len(tree) == 5
        assert LeftEngine in tree
        assert ActionFailureException not in tree

    def test_depth_and_path(self):
        tree = aircraft_tree()
        assert tree.depth(UniversalException) == 0
        assert tree.depth(LeftEngine) == 2
        assert tree.path_to_root(LeftEngine) == [
            LeftEngine,
            EmergencyEngineLoss,
            UniversalException,
        ]

    def test_parent(self):
        tree = aircraft_tree()
        assert tree.parent(LeftEngine) is EmergencyEngineLoss
        assert tree.parent(UniversalException) is None

    def test_covers(self):
        tree = aircraft_tree()
        assert tree.covers(EmergencyEngineLoss, LeftEngine)
        assert tree.covers(UniversalException, Hydraulics)
        assert tree.covers(LeftEngine, LeftEngine)
        assert not tree.covers(LeftEngine, RightEngine)
        assert not tree.covers(Hydraulics, LeftEngine)

    def test_resolve_single(self):
        tree = aircraft_tree()
        assert tree.resolve([LeftEngine]) is LeftEngine

    def test_resolve_siblings_to_parent(self):
        """Both engines lost resolves to the emergency-loss exception —
        the paper's canonical 'symptoms of a more serious fault' case."""
        tree = aircraft_tree()
        assert tree.resolve([LeftEngine, RightEngine]) is EmergencyEngineLoss

    def test_resolve_across_branches_to_root(self):
        tree = aircraft_tree()
        assert tree.resolve([LeftEngine, Hydraulics]) is UniversalException

    def test_resolve_ancestor_dominates(self):
        tree = aircraft_tree()
        assert (
            tree.resolve([EmergencyEngineLoss, LeftEngine]) is EmergencyEngineLoss
        )

    def test_resolve_duplicates(self):
        tree = aircraft_tree()
        assert tree.resolve([LeftEngine, LeftEngine]) is LeftEngine

    def test_resolve_empty_rejected(self):
        with pytest.raises(ValueError):
            aircraft_tree().resolve([])

    def test_resolve_undeclared_rejected(self):
        with pytest.raises(KeyError):
            aircraft_tree().resolve([ActionFailureException])

    def test_from_classes(self):
        tree = ResolutionTree.from_classes(UniversalException)
        assert LeftEngine in tree
        assert tree.parent(LeftEngine) is EmergencyEngineLoss
        assert tree.resolve([LeftEngine, RightEngine]) is EmergencyEngineLoss

    def test_chain_constructor(self):
        e = [declare_exception(f"C{i}") for i in range(5)]
        tree = ResolutionTree.chain(e)
        assert tree.root is e[0]
        assert tree.depth(e[4]) == 4
        assert tree.resolve([e[4], e[2]]) is e[2]

    def test_chain_empty_rejected(self):
        with pytest.raises(TreeValidationError):
            ResolutionTree.chain([])

    def test_root_with_parent_rejected(self):
        with pytest.raises(TreeValidationError):
            ResolutionTree(
                UniversalException, {UniversalException: EmergencyEngineLoss}
            )

    def test_unreachable_node_rejected(self):
        orphan_parent = declare_exception("OrphanParent")
        orphan = declare_exception("Orphan", parent=orphan_parent)
        with pytest.raises(TreeValidationError):
            ResolutionTree(UniversalException, {orphan: orphan_parent})

    def test_cycle_rejected(self):
        a = declare_exception("CycleA")
        b = declare_exception("CycleB", parent=a)
        with pytest.raises(TreeValidationError):
            ResolutionTree(UniversalException, {a: b, b: a})

    def test_cover_within(self):
        tree = aircraft_tree()
        subset = {UniversalException, EmergencyEngineLoss}
        assert tree.cover_within(subset, LeftEngine) is EmergencyEngineLoss
        assert tree.cover_within(subset, Hydraulics) is UniversalException
        assert (
            tree.cover_within(subset, EmergencyEngineLoss) is EmergencyEngineLoss
        )

    def test_cover_within_requires_root_reachability(self):
        tree = aircraft_tree()
        with pytest.raises(KeyError):
            tree.cover_within({LeftEngine}, Hydraulics)

    def test_single_node_tree(self):
        tree = ResolutionTree(UniversalException)
        assert tree.resolve([UniversalException]) is UniversalException


class TestExceptionContextStack:
    def _context(self, name):
        tree = aircraft_tree()
        return ExceptionContext(name, tree, HandlerSet.completing_all(tree))

    def test_push_pop_active(self):
        stack = ExceptionContextStack()
        assert stack.active is None
        stack.push(self._context("A1"))
        stack.push(self._context("A2"))
        assert stack.active.action_name == "A2"
        stack.pop("A2")
        assert stack.active.action_name == "A1"

    def test_pop_wrong_action_rejected(self):
        stack = ExceptionContextStack()
        stack.push(self._context("A1"))
        with pytest.raises(ContextError):
            stack.pop("A2")

    def test_pop_empty_rejected(self):
        with pytest.raises(ContextError):
            ExceptionContextStack().pop("A1")

    def test_find_and_entered(self):
        stack = ExceptionContextStack()
        stack.push(self._context("A1"))
        stack.push(self._context("A2"))
        assert stack.find("A1").action_name == "A1"
        assert stack.find("missing") is None

    def test_names_outermost_first(self):
        stack = ExceptionContextStack()
        for name in ("A1", "A2"):
            stack.push(self._context(name))
        assert stack.names() == ["A1", "A2"]


class TestHandlers:
    def test_completing_handler(self):
        handler = Handler.completing(duration=2.0)
        result = handler.run(None, LeftEngine)
        assert result.outcome is HandlerOutcome.COMPLETED
        assert result.signal is None
        assert handler.duration == 2.0

    def test_signalling_handler(self):
        handler = Handler.signalling(ActionFailureException)
        result = handler.run(None, LeftEngine)
        assert result.outcome is HandlerOutcome.SIGNAL
        assert result.signal is ActionFailureException

    def test_result_validation(self):
        with pytest.raises(ValueError):
            HandlerResult(HandlerOutcome.SIGNAL)
        with pytest.raises(ValueError):
            HandlerResult(HandlerOutcome.COMPLETED, ActionFailureException)

    def test_handler_must_return_result(self):
        handler = Handler(body=lambda p, e: "oops")
        with pytest.raises(TypeError):
            handler.run(None, LeftEngine)

    def test_handler_set_completeness(self):
        tree = aircraft_tree()
        complete = HandlerSet.completing_all(tree)
        complete.validate_complete(tree)  # should not raise
        partial = HandlerSet({UniversalException: Handler.completing()})
        with pytest.raises(IncompleteHandlerSetError):
            partial.validate_complete(tree)

    def test_handler_set_lookup(self):
        tree = aircraft_tree()
        special = Handler.signalling(ActionFailureException)
        handlers = HandlerSet.completing_all(tree).with_override(LeftEngine, special)
        assert handlers.lookup(LeftEngine) is special
        assert handlers.lookup(Hydraulics).run(None, Hydraulics).outcome is (
            HandlerOutcome.COMPLETED
        )
        with pytest.raises(KeyError):
            HandlerSet({}).lookup(LeftEngine)

    def test_reduced_set_requires_root(self):
        tree = aircraft_tree()
        with pytest.raises(IncompleteHandlerSetError):
            ReducedHandlerSet(tree, {LeftEngine: Handler.completing()})

    def test_reduced_set_rejects_undeclared(self):
        tree = aircraft_tree()
        with pytest.raises(ValueError):
            ReducedHandlerSet(
                tree,
                {
                    UniversalException: Handler.completing(),
                    ActionFailureException: Handler.completing(),
                },
            )

    def test_reduced_cover_for(self):
        tree = aircraft_tree()
        reduced = ReducedHandlerSet(
            tree,
            {
                UniversalException: Handler.completing(),
                EmergencyEngineLoss: Handler.completing(),
            },
        )
        assert reduced.cover_for(LeftEngine) is EmergencyEngineLoss
        assert reduced.cover_for(Hydraulics) is UniversalException
        assert reduced.handles(EmergencyEngineLoss)
        assert not reduced.handles(LeftEngine)

    def test_reduced_lookup_runs_cover_handler(self):
        tree = aircraft_tree()
        marker = Handler.signalling(ActionFailureException)
        reduced = ReducedHandlerSet(
            tree,
            {UniversalException: Handler.completing(), EmergencyEngineLoss: marker},
        )
        assert reduced.lookup(LeftEngine) is marker
