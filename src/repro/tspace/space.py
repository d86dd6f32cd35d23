"""In-memory tuple space with the three classic LINDA operations.

:class:`TupleSpace` stores entries in insertion order (a multiset — the
same entry may appear several times) and maintains a small index on the
first field of each entry, which is the customary "tuple name" position
(``DECISION``, ``PROPOSE``, ``SEQ``, ``ANN`` in the paper's algorithms) and
makes matching proportional to the number of candidates of that name rather
than the full space size.

The class is **not** thread safe and does not provide ``cas``; see
:class:`repro.tspace.augmented.AugmentedTupleSpace`, and
:class:`repro.peo.PEATS` for the lock that makes a shared space
linearizable.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import OperationTimeoutError, TupleSpaceError
from repro.tuples import Entry, Template, is_defined, matches
from repro.tspace.interface import TupleSpaceInterface

__all__ = ["TupleSpace"]


class TupleSpace(TupleSpaceInterface):
    """A plain (non-augmented, non-thread-safe) tuple space.

    Parameters
    ----------
    initial:
        Optional iterable of entries to pre-populate the space with.
    """

    def __init__(self, initial: Iterable[Entry] = ()):  # noqa: D401
        # Entries in insertion order, keyed by a monotonically increasing id
        # so removal does not disturb ordering of the remaining entries.
        self._entries: "collections.OrderedDict[int, Entry]" = collections.OrderedDict()
        self._next_id = 0
        # Index: first field value (if hashable/defined) -> set of entry ids.
        self._name_index: dict[Any, set[int]] = collections.defaultdict(set)
        # Blocking rd/in are implemented with a condition variable that is
        # notified on every insertion.  The plain space may be used from a
        # single thread, but keeping the condition here lets PEATS wait
        # on it outside its own operation lock.
        self._condition = threading.Condition()
        # Insert listeners (repro.notify's local delivery path): called
        # with each freshly inserted entry, *outside* the condition lock so
        # a listener may issue further space operations.
        self._insert_listeners: list[Callable[[Entry], None]] = []
        for item in initial:
            self.out(item)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def out(self, entry: Entry) -> bool:
        if not isinstance(entry, Entry):
            raise TupleSpaceError(f"out() requires an Entry, got {type(entry).__name__}")
        with self._condition:
            entry_id = self._next_id
            self._next_id += 1
            self._entries[entry_id] = entry
            self._name_index[entry.fields[0]].add(entry_id)
            self._condition.notify_all()
        for listener in tuple(self._insert_listeners):
            listener(entry)
        return True

    def add_insert_listener(self, listener: Callable[[Entry], None]) -> None:
        """Call ``listener(entry)`` after every insert (``out`` and the
        insert arm of ``cas``), outside the space lock."""
        self._insert_listeners.append(listener)

    def remove_insert_listener(self, listener: Callable[[Entry], None]) -> None:
        """Detach a listener added by :meth:`add_insert_listener` (idempotent)."""
        try:
            self._insert_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    @staticmethod
    def _as_template(pattern: Any) -> Template:
        """Single normalization point for read patterns.

        Accepts a :class:`Template` or an :class:`Entry` (which reads as
        "match exactly this tuple", mirroring :func:`repro.tuples.matches`);
        everything else is rejected.
        """
        if isinstance(pattern, Template):
            return pattern
        if isinstance(pattern, Entry):
            return pattern.to_template()
        raise TupleSpaceError(
            f"read operations require a Template, got {type(pattern).__name__}"
        )

    def _candidate_ids(self, template: Template) -> Iterable[int]:
        """Entry ids to consider for ``template``, cheapest index first."""
        first = template.fields[0]
        if is_defined(first):
            ids = self._name_index.get(first)
            if not ids:
                return ()
            # Preserve insertion order: LINDA does not mandate any order but a
            # deterministic oldest-first choice makes executions reproducible.
            return sorted(ids)
        return list(self._entries.keys())

    def _find(self, template: Template) -> Optional[tuple[int, Entry]]:
        pattern = self._as_template(template)
        for entry_id in self._candidate_ids(pattern):
            stored = self._entries.get(entry_id)
            if stored is not None and matches(stored, pattern):
                return entry_id, stored
        return None

    def rdp(self, template: Template) -> Optional[Entry]:
        found = self._find(template)
        return found[1] if found else None

    def inp(self, template: Template) -> Optional[Entry]:
        with self._condition:
            found = self._find(template)
            if found is None:
                return None
            entry_id, stored = found
            self._remove(entry_id, stored)
            return stored

    def rd(self, template: Template, *, timeout: float | None = None) -> Entry:
        return self._blocking(template, destructive=False, timeout=timeout)

    def in_(self, template: Template, *, timeout: float | None = None) -> Entry:
        return self._blocking(template, destructive=True, timeout=timeout)

    def cas(self, template: Template, entry: Entry) -> tuple[bool, Optional[Entry]]:
        raise TupleSpaceError(
            "the plain TupleSpace has no cas operation; use AugmentedTupleSpace"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remove(self, entry_id: int, stored: Entry) -> None:
        del self._entries[entry_id]
        bucket = self._name_index.get(stored.fields[0])
        if bucket is not None:
            bucket.discard(entry_id)
            if not bucket:
                del self._name_index[stored.fields[0]]

    def _blocking(
        self, template: Template, *, destructive: bool, timeout: float | None
    ) -> Entry:
        with self._condition:
            while True:
                found = self._find(template)
                if found is not None:
                    entry_id, stored = found
                    if destructive:
                        self._remove(entry_id, stored)
                    return stored
                if not self._condition.wait(timeout=timeout):
                    raise OperationTimeoutError(
                        f"no tuple matching {template!r} appeared within {timeout} seconds"
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[Entry, ...]:
        return tuple(self._entries.values())

    def clear(self) -> None:
        """Remove every entry (used by tests; not part of the paper's API)."""
        with self._condition:
            self._entries.clear()
            self._name_index.clear()

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        """Number of stored entries — O(1), unlike the interface default."""
        return len(self._entries)

    def __contains__(self, item: Any) -> bool:
        """``entry in space`` / ``template in space`` membership tests.

        An :class:`Entry` tests for that exact tuple; a :class:`Template`
        tests whether *any* stored entry matches it.  Both go through the
        name index rather than a full snapshot scan; anything else is
        simply not contained.
        """
        if not isinstance(item, (Entry, Template)):
            return False
        return self._find(item) is not None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={len(self._entries)})"
