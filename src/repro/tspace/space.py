"""In-memory tuple space with the three classic LINDA operations.

:class:`TupleSpace` stores entries in insertion order (a multiset — the
same entry may appear several times) under monotonically increasing ids
that are never reused, and indexes them on their defined prefix at two
levels:

* by **name**, ``fields[0]`` — the customary tuple-name position
  (``DECISION``, ``PROPOSE``, ``SEQ``, ``ANN`` in the paper's algorithms);
* by **(name, field 1)** for entries of arity ≥ 2 — the ``pos``/``id``
  position of every template the paper's algorithms and the Fig. 3–8
  policy predicates use (``⟨SEQ, pos, ?inv⟩``, ``⟨ANN, i, *⟩``,
  ``⟨PROPOSE, p, *⟩``).

Each bucket is an insertion-ordered ``dict`` of ids, so it iterates
oldest-first without a sort, and the oldest-first answer every read gives
is the one a linear scan of the whole space would give.  The index is a
*superset* filter: every candidate still goes through
:func:`~repro.tuples.matches`, which is what keeps ``1``, ``True`` and
``1.0`` (one dict bucket, since they hash and compare equal) distinct.
Reads therefore cost one ``matches`` call per candidate of the most
specific bucket: ``⟨SEQ, k, ?inv⟩`` costs one call, a miss none.  What is
left linear is a template whose field 1 is undefined but a later field is
not — Fig. 8's "already threaded?" probe ``⟨SEQ, *, inv⟩`` scans the whole
``SEQ`` bucket.  A per-field index would remove that scan, but the ladder's
smoke test requires traced ``universal_local`` to make more than ten
``matches`` calls per operation, which such an index drops below; it waits
for a change that revises that assertion.

The class is **not** thread safe and does not provide ``cas``; see
:class:`repro.tspace.augmented.AugmentedTupleSpace`, and
:class:`repro.peo.PEATS` for the lock that makes a shared space
linearizable.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import OperationTimeoutError, TupleSpaceError
from repro.tuples import Entry, Template, is_defined, matches
from repro.tspace.interface import TupleSpaceInterface

__all__ = ["TupleSpace"]


def _index_add(index: dict[Any, dict[int, None]], key: Any, entry_id: int) -> None:
    bucket = index.get(key)
    if bucket is None:
        index[key] = bucket = {}
    bucket[entry_id] = None


def _index_discard(index: dict[Any, dict[int, None]], key: Any, entry_id: int) -> None:
    bucket = index[key]
    del bucket[entry_id]
    if not bucket:
        del index[key]


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
        self._entries: dict[int, Entry] = {}
        self._next_id = 0
        # The two index levels: fields[0] -> ids, and fields[:2] -> ids for
        # entries of arity >= 2.  Buckets are insertion-ordered id sets
        # (dict values unused); empty buckets are dropped.
        self._by_name: dict[Any, dict[int, None]] = {}
        self._by_pair: dict[tuple[Any, Any], dict[int, None]] = {}
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
            fields = entry.fields
            _index_add(self._by_name, fields[0], entry_id)
            if len(fields) > 1:
                _index_add(self._by_pair, fields[:2], entry_id)
            self._condition.notify_all()
        for listener in tuple(self._insert_listeners):
            listener(entry)
        return True

    def add_insert_listener(self, listener: Callable[[Entry], None]) -> None:
        """Call ``listener(entry)`` after every insert (``out`` and the
        insert arm of ``cas``), outside the space lock."""
        self._insert_listeners.append(listener)

    @property
    def inserts(self) -> int:
        """How many entries were ever inserted — the reading to pass to
        :meth:`wait_for_insert`."""
        return self._next_id

    def wait_for_insert(self, seen: int, timeout: float) -> bool:
        """Block until an insert lands after the ``seen`` reading of
        :attr:`inserts`, up to ``timeout`` seconds; returns whether one did."""
        with self._condition:
            return self._condition.wait_for(lambda: self._next_id > seen, timeout)

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

    def _candidate_ids(self, template: Template) -> tuple[int, ...]:
        """Entry ids that may match ``template``, oldest first.

        The most specific bucket the template's defined prefix names: the
        ``(name, field 1)`` bucket when fields 0 and 1 are both defined,
        the name bucket when only field 0 is, every entry otherwise.  A
        superset of the matches (the caller filters with ``matches``), in
        insertion order because ids are monotonic — LINDA mandates no
        order, but oldest-first makes executions reproducible.  A template
        defined only past field 1 (``⟨SEQ, *, inv⟩``) still scans its whole
        name bucket; see the module docstring for why no per-field index.

        The bucket is copied: ``PEATS.in_`` waits and removes under the
        space's condition, not under the lock ``PEATS.rdp`` holds, so a
        bucket may shrink while a caller walks the ids.
        """
        fields = template.fields
        if not is_defined(fields[0]):
            return tuple(self._entries)
        if len(fields) > 1 and is_defined(fields[1]):
            bucket = self._by_pair.get(fields[:2])
        else:
            bucket = self._by_name.get(fields[0])
        return () if bucket is None else tuple(bucket)

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
        fields = stored.fields
        _index_discard(self._by_name, fields[0], entry_id)
        if len(fields) > 1:
            _index_discard(self._by_pair, fields[:2], entry_id)

    def _blocking(
        self, template: Template, *, destructive: bool, timeout: float | None
    ) -> Entry:
        with self._condition:
            # wait_for keeps one deadline across wake-ups: every insert
            # notifies, and restarting the timeout on each would let steady
            # unrelated traffic hold a timed read forever.
            found = self._condition.wait_for(lambda: self._find(template), timeout)
            if found is None:
                raise OperationTimeoutError(
                    f"no tuple matching {template!r} appeared within {timeout} seconds"
                )
            entry_id, stored = found
            if destructive:
                self._remove(entry_id, stored)
            return stored

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[Entry, ...]:
        return tuple(self._entries.values())

    def clear(self) -> None:
        """Remove every entry (used by tests; not part of the paper's API)."""
        with self._condition:
            self._entries.clear()
            self._by_name.clear()
            self._by_pair.clear()

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        """Number of stored entries — O(1), unlike the interface default."""
        return len(self._entries)

    def __contains__(self, item: Any) -> bool:
        """``entry in space`` / ``template in space`` membership tests.

        An :class:`Entry` tests for that exact tuple; a :class:`Template`
        tests whether *any* stored entry matches it.  Both go through the
        index rather than a full snapshot scan; anything else is
        simply not contained.
        """
        if not isinstance(item, (Entry, Template)):
            return False
        return self._find(item) is not None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={len(self._entries)})"
