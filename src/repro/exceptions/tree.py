"""The exception resolution tree.

The tree "includes all exceptions associated with the action and imposes a
partial order on them in such a way that a higher exception has a handler
which is intended to handle any lower level exception" (Section 2.2).
Resolving a set of concurrently raised exceptions means finding the lowest
exception that covers all of them — the least common ancestor.

Trees can be declared explicitly (edge map) or derived from a Python class
hierarchy rooted at :class:`~repro.exceptions.declarations.UniversalException`
(the paper's object-oriented formulation in Section 3.2).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.exceptions.declarations import ActionException

ExceptionClass = type[ActionException]


class TreeValidationError(ValueError):
    """The declared structure is not a valid resolution tree."""


class ResolutionTree:
    """A rooted tree over exception classes supporting LCA resolution."""

    def __init__(
        self,
        root: ExceptionClass,
        parents: Mapping[ExceptionClass, ExceptionClass] | None = None,
    ) -> None:
        """Build a tree from an explicit child → parent map.

        Args:
            root: the unique top exception (usually
                :class:`UniversalException` or a subclass standing in for it).
            parents: map from every non-root member to its parent.  ``root``
                must not appear as a key.  May be ``None`` for a
                single-node tree.

        Raises:
            TreeValidationError: on cycles, unreachable nodes, or a parented
                root.
        """
        self.root = root
        self._parent: dict[ExceptionClass, ExceptionClass] = dict(parents or {})
        if root in self._parent:
            raise TreeValidationError(f"root {root.name()} must not have a parent")
        self._depth: dict[ExceptionClass, int] = {root: 0}
        self._validate_and_index()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_classes(cls, root: ExceptionClass) -> "ResolutionTree":
        """Derive the tree from the Python class hierarchy under ``root``.

        Follows single-inheritance ``__subclasses__`` chains recursively, so
        declaring exceptions by subclassing *is* declaring the tree — the
        paper's OO formulation.
        """
        parents: dict[ExceptionClass, ExceptionClass] = {}

        def walk(node: ExceptionClass) -> None:
            for child in node.__subclasses__():
                if child in parents:
                    raise TreeValidationError(
                        f"{child.name()} reachable twice; multiple inheritance "
                        "is not a tree"
                    )
                parents[child] = node
                walk(child)

        walk(root)
        return cls(root, parents)

    @classmethod
    def chain(cls, exceptions: Sequence[ExceptionClass]) -> "ResolutionTree":
        """Build a directed chain ``e[0] ← e[1] ← ... ← e[k]``.

        ``exceptions[0]`` is the root.  This is the shape used by the
        Section 3.3 domino-effect example.
        """
        if not exceptions:
            raise TreeValidationError("chain needs at least one exception")
        parents = {
            child: parent for parent, child in zip(exceptions, exceptions[1:])
        }
        return cls(exceptions[0], parents)

    def _validate_and_index(self) -> None:
        for node in self._parent:
            seen: set[ExceptionClass] = set()
            cursor: ExceptionClass | None = node
            while cursor is not None and cursor != self.root:
                if cursor in seen:
                    raise TreeValidationError(f"cycle through {cursor.name()}")
                seen.add(cursor)
                cursor = self._parent.get(cursor)
            if cursor is None:
                raise TreeValidationError(
                    f"{node.name()} does not reach the root {self.root.name()}"
                )
        # Depth index (children sorted for determinism of iteration orders).
        for node in self._parent:
            self._depth[node] = len(self.path_to_root(node)) - 1

    # -- queries -----------------------------------------------------------------

    @property
    def members(self) -> set[ExceptionClass]:
        """All exception classes in the tree, root included."""
        return {self.root, *self._parent}

    def __contains__(self, exception: ExceptionClass) -> bool:
        return exception == self.root or exception in self._parent

    def __len__(self) -> int:
        return 1 + len(self._parent)

    def parent(self, exception: ExceptionClass) -> ExceptionClass | None:
        """Parent of ``exception``; ``None`` for the root."""
        self._require(exception)
        return self._parent.get(exception)

    def depth(self, exception: ExceptionClass) -> int:
        """Distance from the root (root has depth 0)."""
        self._require(exception)
        return self._depth[exception]

    def path_to_root(self, exception: ExceptionClass) -> list[ExceptionClass]:
        """``[exception, parent, ..., root]``."""
        self._require(exception)
        path = [exception]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        return path

    def covers(self, upper: ExceptionClass, lower: ExceptionClass) -> bool:
        """True if ``upper`` is an ancestor of, or equal to, ``lower``.

        A covering exception's handler "is intended to handle any lower
        level exception" (Section 2.2).
        """
        return upper in self.path_to_root(lower)

    def resolve(self, raised: Iterable[ExceptionClass]) -> ExceptionClass:
        """Least common ancestor of all ``raised`` exceptions.

        This is the resolution function of the paper: the single exception
        whose handler covers every concurrently raised one.

        Raises:
            ValueError: if ``raised`` is empty.
            KeyError: if any raised exception is not declared in the tree.
        """
        classes = list(dict.fromkeys(raised))  # dedupe, keep order
        if not classes:
            raise ValueError("cannot resolve an empty set of exceptions")
        paths = [self.path_to_root(exception) for exception in classes]
        common = set(paths[0])
        for path in paths[1:]:
            common &= set(path)
        # The LCA is the deepest node on every path; paths list deepest
        # first, so scan the first path in order.
        for node in paths[0]:
            if node in common:
                return node
        # Unreachable: the root is always common.
        raise AssertionError("resolution tree has no common root")

    def cover_within(
        self, subset: set[ExceptionClass], exception: ExceptionClass
    ) -> ExceptionClass:
        """Nearest ancestor-or-self of ``exception`` inside ``subset``.

        Used by the Campbell–Randell baseline: a participant that has
        handlers only for ``subset`` finds the exception *it* can raise for
        a given one (Section 3.3's reduced trees).  ``subset`` must contain
        the root for this to be total.
        """
        for node in self.path_to_root(exception):
            if node in subset:
                return node
        raise KeyError(
            f"subset has no cover for {exception.name()}; must include the root"
        )

    def _require(self, exception: ExceptionClass) -> None:
        if exception not in self:
            name = getattr(exception, "__name__", repr(exception))
            raise KeyError(f"{name} is not declared in this tree")

    def __repr__(self) -> str:
        return (
            f"ResolutionTree(root={self.root.name()}, size={len(self)})"
        )
