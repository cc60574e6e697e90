"""Group membership service.

Section 4.5 of the paper suggests implementing the resolution protocol over
group communication with a membership service: "participating objects in a
CA action could be treated as members of a closed group".  This module
provides that service: named closed groups with versioned views.

View changes can be observed: :meth:`GroupMembership.subscribe` registers
a callback invoked with every new :class:`GroupView` of a group.  The
failure detector (:class:`repro.net.detector.Heartbeater`) uses the
mutation side of this contract — suspected members are removed from the
view — so protocol layers can watch one authoritative alive set instead
of polling every peer's detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class GroupView:
    """An immutable snapshot of a group's membership.

    Attributes:
        group: group name.
        version: monotonically increasing view number.
        members: sorted tuple of member endpoint names.
    """

    group: str
    version: int
    members: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def others(self, name: str) -> tuple[str, ...]:
        """All members except ``name`` (used for 'all O_j in G_A' sends)."""
        # A list comprehension, not a generator: every multicast asks, and a
        # generator is resumed (one frame entry) per member.
        return tuple([member for member in self.members if member != name])


#: Callback invoked with every new view of a subscribed group.
ViewListener = Callable[[GroupView], None]


class GroupMembership:
    """Registry of closed groups with view-change tracking."""

    def __init__(self) -> None:
        self._views: dict[str, GroupView] = {}
        self._listeners: dict[str, list[ViewListener]] = {}

    def create(self, group: str, members: list[str]) -> GroupView:
        if group in self._views:
            raise ValueError(f"group already exists: {group}")
        view = GroupView(group, 1, tuple(sorted(members)))
        self._views[group] = view
        return view

    def view(self, group: str) -> GroupView:
        try:
            return self._views[group]
        except KeyError:
            raise KeyError(f"no such group: {group}") from None

    def subscribe(self, group: str, listener: ViewListener) -> None:
        """Invoke ``listener`` with every subsequent view of ``group``."""
        self._listeners.setdefault(group, []).append(listener)

    def _install(self, group: str, view: GroupView) -> GroupView:
        self._views[group] = view
        for listener in self._listeners.get(group, ()):
            listener(view)
        return view

    def join(self, group: str, member: str) -> GroupView:
        old = self.view(group)
        if member in old.members:
            return old
        new = GroupView(group, old.version + 1, tuple(sorted((*old.members, member))))
        return self._install(group, new)

    def leave(self, group: str, member: str) -> GroupView:
        old = self.view(group)
        if member not in old.members:
            return old
        remaining = tuple(m for m in old.members if m != member)
        new = GroupView(group, old.version + 1, remaining)
        return self._install(group, new)

    def dissolve(self, group: str) -> None:
        self._views.pop(group, None)
        self._listeners.pop(group, None)

    def groups(self) -> list[str]:
        return sorted(self._views)
