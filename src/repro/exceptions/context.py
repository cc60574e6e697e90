"""Exception contexts.

"Exception contexts [are] regions in which the same exceptions are treated
in the same way" (Section 2.1).  In the CA-action model a participating
object enters a new exception context whenever it enters an action, and the
nesting of actions causes the nesting of contexts (Section 3.1).  The stack
here is the paper's ``SA_i``: it "stores the exception context and the
exception tree corresponding to each of nested CA actions" (Section 4.1).
A base participant keeps everything it knows about an entered action on
that action's entry, so leaving the action forgets it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.exceptions.tree import ExceptionClass, ResolutionTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import CommitMsg
    from repro.exceptions.handlers import HandlerSet


@dataclass(eq=False)
class ExceptionContext:
    """``empty SA_i``: ``ExceptionContextStack`` holds one record per
    entered action, innermost last: the action's tree and handlers, the
    exception raised in it here, this participant's backward-recovery
    ``attempt``, whether this attempt's DONE went out (``done_sent``), the
    exit barrier of this attempt (the members it waits for, ``others``,
    the DONE senders in so far, ``done_from``, and whether this
    participant waits at the exit line, ``leaving``), the exception whose
    handler completed it (``handled``), the running handler (``handler``)
    and the Commit that handler ran for (``committed``).

    Attributes:
        action_name: the CA action this context belongs to.
        tree: the action's resolution tree.
        handlers: this participant's handlers for the action's exceptions.
    """

    action_name: str
    tree: ResolutionTree
    handlers: "HandlerSet"
    #: Exceptions raised locally in this context so far (at most one is
    #: allowed by the Section 4.1 assumption; tracked to enforce it).
    raised: list[ExceptionClass] = field(default_factory=list)
    #: This participant's backward-recovery attempt of the action (1 is
    #: the primary; Figure 2(b)'s retries count up).
    attempt: int = 1
    #: True once this attempt's DONE went out ("leave A synchronously").
    done_sent: bool = False
    #: The other members, whose DONEs for this attempt open the barrier
    #: (set when this attempt's DONE goes out).
    others: frozenset[str] = frozenset()
    #: The members whose DONE for this attempt has arrived here.
    done_from: set[str] = field(default_factory=set)
    #: True once this participant asked to leave and waits for the others.
    leaving: bool = False
    #: The exception whose handler completed the action, for its exit.
    handled: Optional[ExceptionClass] = None
    #: The scheduled handle of the resolution handler running here.
    handler: Optional[object] = None
    #: The Commit whose handler ran: this attempt's verdict.
    committed: Optional["CommitMsg"] = None


class ContextError(RuntimeError):
    """Misuse of the context stack (pop of wrong action, empty stack...)."""


class ExceptionContextStack:
    """The per-participant stack of nested exception contexts (``SA_i``)."""

    def __init__(self) -> None:
        self._stack: list[ExceptionContext] = []

    def push(self, context: ExceptionContext) -> None:
        """Enter a (possibly nested) action's exception context."""
        self._stack.append(context)

    def pop(self, action_name: str) -> ExceptionContext:
        """Leave the innermost context; must match ``action_name``."""
        if not self._stack:
            raise ContextError(f"no context to pop for action {action_name}")
        top = self._stack[-1]
        if top.action_name != action_name:
            raise ContextError(
                f"context mismatch: popping {action_name} but innermost is "
                f"{top.action_name}"
            )
        return self._stack.pop()

    @property
    def active(self) -> ExceptionContext | None:
        """The innermost context — the participant's *active* action."""
        return self._stack[-1] if self._stack else None

    def find(self, action_name: str) -> ExceptionContext | None:
        """The context for ``action_name``, if this object has entered it."""
        for context in reversed(self._stack):
            if context.action_name == action_name:
                return context
        return None

    def __len__(self) -> int:
        return len(self._stack)

    def names(self) -> list[str]:
        """Action names outermost-first."""
        return [context.action_name for context in self._stack]
