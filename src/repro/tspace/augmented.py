"""The augmented tuple space: LINDA operations plus conditional atomic swap.

The ``cas(template, entry)`` operation is the extension (from Bakken &
Schlichting and Segall, refs. [14] and [15] of the paper) that raises the
consensus number of the tuple space from 2 to *n*: it atomically executes

    if not rdp(template): out(entry)

returning ``True`` when the entry was inserted.  Our implementation also
returns the matching tuple on failure so that callers can read the
formal-field bindings, which is how Algorithms 1–4 obtain the decision
value / threaded invocation from a failed ``cas``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import TupleSpaceError
from repro.tuples import Entry, Template
from repro.tspace.space import TupleSpace

__all__ = ["AugmentedTupleSpace"]


class AugmentedTupleSpace(TupleSpace):
    """A tuple space with the conditional atomic swap operation ``cas``.

    The class itself performs no locking; atomicity across threads is the
    job of :class:`repro.peo.PEATS`, which serialises every operation
    under one lock.  Used single-threaded (e.g. inside a PBFT
    replica, where the ordering protocol already serialises requests) this
    class is linearizable by construction.
    """

    def __init__(self, initial: Iterable[Entry] = ()):
        super().__init__(initial)
        self._cas_successes = 0
        self._cas_failures = 0

    def cas(self, template: Template, entry: Entry) -> tuple[bool, Optional[Entry]]:
        if not isinstance(entry, Entry):
            raise TupleSpaceError(f"cas() requires an Entry to insert, got {type(entry).__name__}")
        with self._condition:
            existing = self.rdp(template)
            if existing is not None:
                self._cas_failures += 1
                return False, existing
            self.out(entry)
            self._cas_successes += 1
            return True, None

    @property
    def cas_statistics(self) -> dict[str, int]:
        """Counts of successful and failed ``cas`` executions (for benches)."""
        return {"successes": self._cas_successes, "failures": self._cas_failures}
