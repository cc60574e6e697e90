"""Static CA action declarations.

A :class:`CAActionDef` declares what the paper's action declaration does:
the participating objects, the exception (resolution) tree, the containing
action, and the policy for treating nested actions when an exception is
raised (Figure 1).  The :class:`ActionRegistry` validates the nesting
structure — each participant set of a nested action must be a subset of its
parent's ("A subset of these participating objects may further enter a
nested CA action", Section 3.1) — and answers containment queries for the
resolution engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exceptions.tree import ResolutionTree


class NestedPolicy(enum.Enum):
    """How a containing action treats nested actions during resolution.

    The two methods of Figure 1:

    * ``ABORT_NESTED`` (Figure 1(b), the paper's choice): raise an abortion
      exception in the nested action and run abortion handlers;
    * ``WAIT_FOR_NESTED`` (Figure 1(a)): delay the resolution until the
      nested action completes normally.
    """

    ABORT_NESTED = "abort"
    WAIT_FOR_NESTED = "wait"


@dataclass(frozen=True)
class CAActionDef:
    """Declaration of one CA action.

    Attributes:
        name: unique action name.
        participants: names of all participating objects (the paper's
            ``G_A``); lexicographic order of these names elects resolvers.
        tree: the action's exception resolution tree.
        parent: name of the containing action, or ``None`` for a top-level
            action.
        policy: Figure 1 nested-action treatment, inherited by resolutions
            *of this action* (i.e. how this action treats its nested ones).
        transactional: whether the action runs a transaction over external
            atomic objects (nested actions nest their transactions).
        resolver_group_size: how many of the biggest-named raisers resolve
            and send Commit.  1 is the paper's base algorithm; k > 1 is the
            fault-tolerant extension of Section 4.4 ("a group of objects
            that are responsible for performing resolution ... only
            contributes a constant factor").
        acceptance: backward error recovery (Figure 2(b)): a predicate
            evaluated at the synchronized exit line; on failure the
            action's transaction is aborted implicitly and every
            participant retries its block ("the start, abort and commit
            functions would be called implicitly, corresponding to three
            different cases that an attempt of the CA action starts, or
            fails or passes the acceptance test").  A predicate that
            raises fails the test.  ``None`` disables the test
            (forward-recovery-only actions).
        max_attempts: how many attempts (primary + alternates) before the
            action signals :class:`ActionFailureException` to its
            container.
    """

    name: str
    participants: tuple[str, ...]
    tree: ResolutionTree
    parent: Optional[str] = None
    policy: NestedPolicy = NestedPolicy.ABORT_NESTED
    transactional: bool = False
    resolver_group_size: int = 1
    acceptance: Optional[Callable[[], bool]] = None
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if not self.participants:
            raise ValueError(f"action {self.name} has no participants")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError(f"action {self.name} has duplicate participants")
        if self.resolver_group_size < 1:
            raise ValueError(
                f"action {self.name} needs at least one resolver, got "
                f"{self.resolver_group_size}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"action {self.name} needs at least one attempt, got "
                f"{self.max_attempts}"
            )
        # Broadcast-target memo; the engines ask for others(name) on every
        # protocol message, which is O(N) per call and O(N²) per broadcast
        # round without it.  (The dataclass is frozen, hence the setattr.)
        object.__setattr__(self, "_others_memo", {})
        object.__setattr__(self, "_others_set_memo", {})

    def others(self, name: str) -> tuple[str, ...]:
        """All participants except ``name`` — the broadcast targets."""
        memo: dict[str, tuple[str, ...]] = self._others_memo
        cached = memo.get(name)
        if cached is None:
            cached = tuple([p for p in self.participants if p != name])
            memo[name] = cached
        return cached

    def others_set(self, name: str) -> frozenset[str]:
        """Frozen-set view of :meth:`others`, memoized.

        The exit barrier compares arrivals against this, held on the
        action's ``SA_i`` record once its DONE goes out; memoized, so the
        attempts and runs of one declaration share one set per member.
        """
        memo: dict[str, frozenset[str]] = self._others_set_memo
        cached = memo.get(name)
        if cached is None:
            cached = frozenset(self.others(name))
            memo[name] = cached
        return cached


@dataclass
class ActionRegistry:
    """All action declarations of a scenario, with nesting queries.

    Nesting queries (:meth:`ancestors`, :meth:`contains`,
    :meth:`descendants`) are memoized: the engines issue them on every
    protocol message, and the registry only changes through
    :meth:`declare`, which invalidates the memos.
    """

    _defs: dict[str, CAActionDef] = field(default_factory=dict)
    _ancestors_memo: dict[str, list[str]] = field(default_factory=dict)
    _ancestor_sets: dict[str, frozenset[str]] = field(default_factory=dict)
    _descendants_memo: dict[str, list[str]] = field(default_factory=dict)

    def declare(self, definition: CAActionDef) -> CAActionDef:
        """Register a definition, validating nesting constraints."""
        if definition.name in self._defs:
            raise ValueError(f"duplicate action name: {definition.name}")
        if definition.parent is not None:
            parent = self._defs.get(definition.parent)
            if parent is None:
                raise ValueError(
                    f"action {definition.name} declares unknown parent "
                    f"{definition.parent}"
                )
            extra = set(definition.participants) - set(parent.participants)
            if extra:
                raise ValueError(
                    f"participants {sorted(extra)} of nested action "
                    f"{definition.name} are not participants of {parent.name}"
                )
        self._defs[definition.name] = definition
        self._ancestors_memo.clear()
        self._ancestor_sets.clear()
        self._descendants_memo.clear()
        return definition

    def get(self, name: str) -> CAActionDef:
        try:
            return self._defs[name]
        except KeyError:
            raise KeyError(f"undeclared action: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def names(self) -> list[str]:
        return sorted(self._defs)

    def ancestors(self, name: str) -> list[str]:
        """Containing actions of ``name``, innermost first.

        Memoized; treat the returned list as immutable.
        """
        cached = self._ancestors_memo.get(name)
        if cached is None:
            cached = []
            cursor = self.get(name).parent
            while cursor is not None:
                cached.append(cursor)
                cursor = self.get(cursor).parent
            self._ancestors_memo[name] = cached
            self._ancestor_sets[name] = frozenset(cached)
        return cached

    def contains(self, outer: str, inner: str) -> bool:
        """True if action ``outer`` strictly contains action ``inner``."""
        ancestors = self._ancestor_sets.get(inner)
        if ancestors is None:
            self.ancestors(inner)
            ancestors = self._ancestor_sets[inner]
        return outer in ancestors

    def descendants(self, name: str) -> list[str]:
        """All actions nested (transitively) inside ``name`` (memoized)."""
        cached = self._descendants_memo.get(name)
        if cached is None:
            cached = [
                candidate
                for candidate in self._defs
                if self.contains(name, candidate)
            ]
            self._descendants_memo[name] = cached
        return cached

    def depth(self, name: str) -> int:
        """Nesting depth: 0 for top-level actions."""
        return len(self.ancestors(name))
