"""Exception declarations.

The paper (Section 3.2) declares action exceptions as classes related by
subtyping, e.g.::

    class universal_exception {}
    class emergency_engine_loss_exception : universal_exception {}
    class left_engine_exception : emergency_engine_loss_exception {}

We mirror this directly: action exceptions are Python classes deriving from
:class:`ActionException`, and a resolution tree can be built straight from
the class hierarchy (:meth:`repro.exceptions.tree.ResolutionTree.from_classes`).

Two exceptions have special protocol meaning:

* :class:`AbortionException` — raised inside a nested action to abort it
  (Figure 1(b) and Section 4.1);
* :class:`ActionFailureException` — signalled to the containing action when
  an action cannot fulfil its specification (Section 3.1).
"""

from __future__ import annotations

import sys


class ActionException(Exception):
    """Base class of all exceptions declared for CA actions.

    Subclasses are *declarations*; instances are *raised occurrences*.
    Resolution operates on classes, so equality/ordering in protocol data
    structures always uses the class, never the instance.
    """

    #: Human-readable description, shown in traces.
    description: str = ""

    @classmethod
    def name(cls) -> str:
        return cls.__name__


class UniversalException(ActionException):
    """The root of every resolution tree.

    The handler for the universal exception is the last resort: it covers
    any combination of concurrently raised exceptions.
    """

    description = "root of the exception tree; covers everything"


class AbortionException(ActionException):
    """Raised within a nested action to abort it.

    Every participant of a nested CA action must provide an *abortion
    handler* for this exception (Section 4.1); abortion handlers undo the
    nested action's effects and may signal one exception to the containing
    action ("last-will" recovery).
    """

    description = "abort the enclosing nested action"


class ActionFailureException(ActionException):
    """Signalled to the containing action when recovery fails.

    Corresponds to the paper's "failure exception ... raised if no
    corresponding handlers are found" / "completes the action ... by
    signalling a failure exception to the containing action".
    """

    description = "the action failed to meet its specification"


def declare_exception(
    name: str,
    parent: type[ActionException] = UniversalException,
    description: str = "",
) -> type[ActionException]:
    """Dynamically declare a new action exception class.

    Workload generators use this to build arbitrary exception hierarchies
    (chains, bushy trees, random trees) without writing a class statement
    per node.

    Args:
        name: class name of the new exception; must be a valid identifier.
        parent: the exception this one specialises (its parent in the tree).
        description: optional human-readable note.

    Returns:
        The freshly created exception class.
    """
    if not name.isidentifier():
        raise ValueError(f"exception name must be an identifier: {name!r}")
    if not issubclass(parent, ActionException):
        raise TypeError(f"parent must derive from ActionException: {parent!r}")
    cls = type(name, (parent,), {"description": description, "_dynamic": True})
    # Register on this module so instances pickle (process pools carry
    # raised occurrences and sweep results between workers and their
    # parent).  Redeclaring a name rebinds it — only the newest class
    # of that name is picklable — and generated names can never shadow a
    # statically declared symbol.
    module = sys.modules[__name__]
    existing = getattr(module, name, None)
    if existing is None or getattr(existing, "_dynamic", False):
        cls.__module__ = __name__
        setattr(module, name, cls)
    return cls
