"""External atomic objects.

"Objects that are external to the CA action and can be shared with other
actions and objects concurrently must be atomic and individually
responsible for their own integrity" (paper Section 3).  An
:class:`AtomicObject` is a named key-value state whose mutations only
happen through transactions; it can carry an integrity *invariant* checked
at commit, making the object responsible for its own consistency.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

_MISSING = object()


class IntegrityError(RuntimeError):
    """Committing would leave the atomic object violating its invariant."""


class AtomicObject:
    """A shared, transactionally updated object."""

    def __init__(
        self,
        name: str,
        initial: dict[Hashable, Any] | None = None,
        invariant: Callable[[dict[Hashable, Any]], bool] | None = None,
    ) -> None:
        self.name = name
        self._state: dict[Hashable, Any] = dict(initial or {})
        self._invariant = invariant
        #: Count of committed top-level transactions that touched this
        #: object — a cheap version number for tests and reports.
        self.version = 0

    # -- raw access (used by the transaction layer and undo records) ---------

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Read without a transaction (monitoring/assertions only)."""
        return self._state.get(key, default)

    def snapshot(self) -> dict[Hashable, Any]:
        """Copy of the full state (acceptance tests, assertions)."""
        return dict(self._state)

    def get(self, key: Hashable) -> Any:
        value = self._state.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(f"{self.name} has no key {key!r}")
        return value

    def probe(self, key: Hashable) -> tuple[Any, bool]:
        """Non-mutating ``(value, existed)`` read — the undo information a
        write-ahead log must persist *before* the mutation happens."""
        return self._state.get(key), key in self._state

    def put(self, key: Hashable, value: Any) -> tuple[Any, bool]:
        """Raw write; returns ``(old_value, existed)`` for undo logging."""
        existed = key in self._state
        old_value = self._state.get(key)
        self._state[key] = value
        return old_value, existed

    def restore(self, key: Hashable, value: Any) -> None:
        self._state[key] = value

    def remove(self, key: Hashable) -> None:
        self._state.pop(key, None)

    # -- integrity -----------------------------------------------------------

    def check_integrity(self) -> None:
        """Raise :class:`IntegrityError` if the invariant does not hold."""
        if self._invariant is not None and not self._invariant(self._state):
            raise IntegrityError(f"{self.name}: invariant violated: {self._state}")

    def __repr__(self) -> str:
        return f"AtomicObject({self.name}, v{self.version}, {self._state})"
