"""Structured trace recorder: the one stream engines and substrates write.

They record what happened as typed entries ``(time, category, subject,
details)`` and nothing else; counts, the causal span forest
(:func:`repro.obs.spans.from_trace`) and the sequence charts are views of
it.  Integration tests for the paper's worked examples (Sections 4.3 and
3.3) assert on these traces, and the benchmark harness prints them for
EXPERIMENTS.md.

Recording granularity is controlled by :class:`TraceLevel`:

* ``FULL`` — every occurrence is kept (the default; what the worked-example
  integration tests rely on).  It is stored as a raw record and becomes a
  :class:`TraceEntry` only when read: ``entries`` materializes the whole
  stream, while the queries select on the raw records: ``count`` builds no
  entry, ``by_category`` one per match.
* ``COUNTS`` — no entries are allocated, but exact per-category counters
  are still maintained, so every message-count claim of the paper
  (Section 4.4's ``(N-1)(2P+3Q+1)`` and friends) remains verifiable at a
  fraction of the cost.  This is the fast path for large sweeps.

Per-category counters are maintained at both levels, so
``count("msg.send")`` agrees between ``FULL`` and ``COUNTS`` runs of the
same seeded scenario.  The exception is the few categories a writer emits
at ``FULL`` only, behind its own cached "trace is FULL" test (protocol
``state`` transitions and the like; docs/SUBSTRATES.md lists them): they
exist for the views, and ``COUNTS`` runs do not execute a call for them.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Any, Iterator


#: Flat-record field shape for the network's ``msg.send`` records.  The
#: shape is matched *by identity* when a record is materialized: for
#: these records the stored fourth value is the raw payload object, and the
#: ``action`` detail is extracted from it lazily at materialization — the
#: send path then skips a ``getattr`` per message.
SEND_SHAPE = ("dst", "kind", "id", "action")


class TraceLevel(enum.IntEnum):
    """How much a :class:`TraceRecorder` keeps."""

    COUNTS = 1
    FULL = 2


class TraceEntry:
    """One recorded occurrence.

    A ``__slots__`` class rather than a (frozen) dataclass: FULL-level runs
    allocate one per recorded occurrence, and the frozen-dataclass
    ``__init__`` (four ``object.__setattr__`` calls) was the single biggest
    line item of FULL tracing.  Treat instances as immutable.

    Attributes:
        time: virtual time of the occurrence.
        category: machine-friendly kind, e.g. ``"msg.send"``, ``"handler"``.
        subject: the acting entity, e.g. an object name.
        details: free-form payload describing the occurrence.
    """

    __slots__ = ("time", "category", "subject", "details")

    def __init__(
        self,
        time: float,
        category: str,
        subject: str,
        details: dict[str, Any] | None = None,
    ) -> None:
        self.time = time
        self.category = category
        self.subject = subject
        self.details = {} if details is None else details

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEntry):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.subject == other.subject
            and self.details == other.details
        )

    def __repr__(self) -> str:
        return (
            f"TraceEntry(time={self.time!r}, category={self.category!r}, "
            f"subject={self.subject!r}, details={self.details!r})"
        )

    def __str__(self) -> str:
        detail_str = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time:10.3f}] {self.category:<22} {self.subject:<12} {detail_str}"


def _materialize(records: list[tuple[Any, ...]]) -> list[TraceEntry]:
    """Raw records (either shape, see ``TraceRecorder._pending``) as entries."""
    entries = []
    append = entries.append
    for rec in records:
        details = rec[3]
        if details.__class__ is tuple:
            values = rec[4:]
            if details is SEND_SHAPE:
                # msg.send stores the payload itself; the action detail is
                # derived here, off the hot path.
                values = values[:3] + (getattr(values[3], "action", None),)
            details = dict(zip(details, values))
        append(TraceEntry(rec[0], rec[1], rec[2], details))
    return entries


class TraceRecorder:
    """Append-only log of :class:`TraceEntry` with simple query helpers."""

    def __init__(self, level: TraceLevel = TraceLevel.FULL) -> None:
        self._entries: list[TraceEntry] = []
        #: Raw record tuples not yet materialized into :class:`TraceEntry`
        #: objects.  FULL-level hot paths append here (a tuple, not an
        #: object construction, per record); the :attr:`entries` getter
        #: converts lazily, so runs that never read their trace never pay
        #: for entry objects.  Two record shapes share the list:
        #:
        #: * ``(time, category, subject, details_dict)`` — the generic
        #:   :meth:`record` form;
        #: * ``(time, category, subject, field_names, v1, v2, ...)`` — the
        #:   *flat* form used by the densest sites (the network's
        #:   per-message entries): one tuple per record, with the interned
        #:   field-name tuple shared across records, so no dict is built
        #:   unless the entries are actually read.
        self._pending: list[tuple[Any, ...]] = []
        # Exact number of record() calls per category, at either level.
        # At FULL the hot paths do not touch this directly: a pending
        # record's category is folded in lazily by the :attr:`counts`
        # property (``_counted`` = how many pending records are folded).
        self._counts: Counter[str] = Counter()
        self._counted = 0
        self._full = False
        self.level = level

    # -- level management ------------------------------------------------------

    @property
    def level(self) -> TraceLevel:
        return self._level

    @level.setter
    def level(self, value: TraceLevel) -> None:
        self._level = TraceLevel(value)
        self._full = self._level is TraceLevel.FULL

    @property
    def counts(self) -> Counter[str]:
        """Exact per-category record() tallies, at either level.

        FULL-level hot paths only append to ``_pending``; the tallies for
        those records are folded in here, on first read.
        """
        pending = self._pending
        if pending:
            counted = self._counted
            total = len(pending)
            if counted < total:
                counts = self._counts
                for index in range(counted, total):
                    counts[pending[index][1]] += 1
                self._counted = total
        return self._counts

    @property
    def entries(self) -> list[TraceEntry]:
        """The entry log, materializing any lazily recorded entries.

        Returns the backing list itself (append-only semantics; callers may
        truncate it directly to reclaim memory).
        """
        pending = self._pending
        if pending:
            self.counts  # fold pending tallies before the list is cleared
            self._entries += _materialize(pending)
            pending.clear()
            self._counted = 0
        return self._entries

    # -- recording -------------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries and counters.

        The supported way to reset a recorder mid-run (e.g. between
        campaign phases, or after toggling ``FULL -> COUNTS`` to reclaim
        entry memory).
        """
        self._entries.clear()
        self._pending.clear()
        self._counts.clear()
        self._counted = 0

    def record(
        self, time: float, category: str, subject: str, **details: Any
    ) -> None:
        if self._full:
            self._pending.append((time, category, subject, details))
        else:
            self._counts[category] += 1

    # -- queries ---------------------------------------------------------------

    def count(self, category: str) -> int:
        """Exact occurrences of ``category`` (prefix-matched like
        :meth:`by_category`), maintained at ``FULL`` and ``COUNTS`` levels."""
        prefix = category + "."
        counts = self.counts  # folds pending tallies
        return sum(
            n
            for cat, n in counts.items()
            if cat == category or cat.startswith(prefix)
        )

    def by_category(self, category: str) -> list[TraceEntry]:
        """All entries whose category equals ``category`` or starts with
        ``category + "."``, in recording order.

        Selects on the raw records: an entry is built only for a match, and
        records not yet materialized stay raw (only :attr:`entries` turns
        the whole stream into entries).
        """
        prefix = category + "."
        k = len(prefix)
        found = [
            entry for entry in self._entries
            if (cat := entry.category) == category or cat[:k] == prefix
        ]
        if self._pending:
            found += _materialize([
                rec for rec in self._pending
                if (cat := rec[1]) == category or cat[:k] == prefix
            ])
        return found

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def dump(self) -> str:
        """Human-readable rendering of the whole trace."""
        return "\n".join(str(entry) for entry in self.entries)
