"""Abstract interface of an augmented tuple space, and the one bound view.

Every tuple-space flavour in the library — the plain in-memory space,
the policy-enforced PEATS and the unified
:class:`~repro.api.Space` over every deployment — implements
:class:`TupleSpaceInterface`, so the consensus algorithms and universal
constructions of Sections 5 and 6 run unchanged on any of them.

There is one way to name the caller.  A *shared* space (one several
processes invoke) takes the invoking identity as a ``process=`` keyword on
every operation and offers ``bind(process)``, which returns a
:class:`BoundView`: the per-process handle every algorithm programs
against.  Algorithms always obtain their view through ``bind`` — they never
pass ``process=`` speculatively.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, Optional

from repro.tuples import Entry, Template

__all__ = ["TupleSpaceInterface", "BoundView"]


class TupleSpaceInterface(abc.ABC):
    """Operations of an augmented tuple space.

    The read operations come in two flavours: ``rd``/``in`` block until a
    matching tuple exists, while ``rdp``/``inp`` return immediately with
    ``None`` when there is no match.  ``cas(template, entry)`` atomically
    executes ``if not rdp(template): out(entry)`` and reports whether the
    entry was inserted; when it was not, the matching tuple (the "reading of
    the template") is returned alongside the boolean so callers can recover
    the formal-field bindings, exactly as the algorithms in the paper expect
    (``?d`` is set by the failed ``cas``).
    """

    @abc.abstractmethod
    def out(self, entry: Entry) -> bool:
        """Insert ``entry`` in the space.  Returns ``True`` on success."""

    @abc.abstractmethod
    def rdp(self, template: Template) -> Optional[Entry]:
        """Non-blocking read: a matching entry, or ``None``."""

    @abc.abstractmethod
    def inp(self, template: Template) -> Optional[Entry]:
        """Non-blocking destructive read: remove and return a match, or ``None``."""

    @abc.abstractmethod
    def rd(self, template: Template, *, timeout: float | None = None) -> Entry:
        """Blocking read: wait until a matching entry exists and return it."""

    @abc.abstractmethod
    def in_(self, template: Template, *, timeout: float | None = None) -> Entry:
        """Blocking destructive read: wait for a match, remove and return it."""

    @abc.abstractmethod
    def cas(self, template: Template, entry: Entry) -> tuple[bool, Optional[Entry]]:
        """Conditional atomic swap: ``if not rdp(template): out(entry)``.

        Returns ``(True, None)`` when the entry was inserted and
        ``(False, match)`` when a tuple matching ``template`` already
        existed (``match`` is that tuple).
        """

    # ------------------------------------------------------------------
    # Introspection helpers shared by all implementations.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def snapshot(self) -> tuple[Entry, ...]:
        """Return all entries currently stored (for tests and policies)."""

    def count(self, template: Template) -> int:
        """Number of stored entries matching ``template``."""
        from repro.tuples import matches

        return sum(1 for stored in self.snapshot() if matches(stored, template))

    def __len__(self) -> int:
        return len(self.snapshot())

    def __contains__(self, item: Any) -> bool:
        """``entry in space`` / ``template in space``, as the store answers
        it: an Entry reads as its own template through ``matches`` (so
        ``True`` and ``1`` stay distinct), a Template as itself; anything
        else is not contained.  This default scans a snapshot."""
        from repro.tuples import matches

        if not isinstance(item, (Entry, Template)):
            return False
        return any(matches(stored, item) for stored in self.snapshot())


class BoundView(TupleSpaceInterface):
    """Per-process view of a shared space: every operation is forwarded with
    ``process=`` pre-bound, so algorithms written against
    :class:`TupleSpaceInterface` need not carry the invoker identity.

    :meth:`bind` re-binds on the parent space, so code handed a view and a
    process always runs under *that* process — a caller-supplied identity
    replaces the view's, it is never silently dropped.
    """

    def __init__(self, space: Any, process: Hashable) -> None:
        self._space = space
        self._process = process

    @property
    def process(self) -> Hashable:
        return self._process

    @property
    def space(self) -> Any:
        """The shared space this view was bound on."""
        return self._space

    def bind(self, process: Hashable) -> Any:
        return self._space.bind(process)

    def out(self, entry: Entry) -> Any:
        return self._space.out(entry, process=self._process)

    def rdp(self, template: Template) -> Optional[Entry]:
        result: Optional[Entry] = self._space.rdp(template, process=self._process)
        return result

    def inp(self, template: Template) -> Optional[Entry]:
        result: Optional[Entry] = self._space.inp(template, process=self._process)
        return result

    def rd(self, template: Template, *, timeout: float | None = None, **options: Any) -> Entry:
        result: Entry = self._space.rd(
            template, timeout=timeout, process=self._process, **options
        )
        return result

    def in_(self, template: Template, *, timeout: float | None = None, **options: Any) -> Entry:
        result: Entry = self._space.in_(
            template, timeout=timeout, process=self._process, **options
        )
        return result

    def cas(self, template: Template, entry: Entry) -> tuple[Any, Optional[Entry]]:
        result: tuple[Any, Optional[Entry]] = self._space.cas(
            template, entry, process=self._process
        )
        return result

    def snapshot(self) -> tuple[Entry, ...]:
        result: tuple[Entry, ...] = self._space.snapshot()
        return result

    def __contains__(self, item: Any) -> bool:
        return item in self._space

    def __repr__(self) -> str:
        return f"{type(self).__name__}(process={self._process!r})"
