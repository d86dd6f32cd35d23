"""Linearizable, thread-safe wrapper around an augmented tuple space.

The paper assumes every shared object is linearizable and wait-free.  In a
single Python process the cheapest way to obtain linearizability is to
serialise operations with one lock: each operation then takes effect
atomically at the point where it holds the lock, which lies between its
invocation and its response — exactly the linearizability condition.

The wrapper also:

* records every completed operation in a :class:`HistoryRecorder` (when one
  is supplied), tagging it with the invoking process so the benchmarks can
  count operations per process;
* optionally enforces *well-formedness* (a process may not start a new
  operation while one of its operations is pending), the correct-interaction
  assumption of Section 2.1;
* exposes the per-process attribution via :meth:`bind`, which returns a
  lightweight view through which a specific process issues its operations.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import PendingOperationError, TupleSpaceError
from repro.tuples import Entry, Template
from repro.tspace.augmented import AugmentedTupleSpace
from repro.tspace.history import HistoryRecorder
from repro.tspace.interface import BoundView, TupleSpaceInterface

__all__ = ["LinearizableTupleSpace"]


class LinearizableTupleSpace(TupleSpaceInterface):
    """Serialise all operations of an underlying augmented tuple space.

    Parameters
    ----------
    inner:
        The wrapped space.  Defaults to a fresh :class:`AugmentedTupleSpace`.
    history:
        Optional :class:`HistoryRecorder`; when given, every completed
        operation is recorded.
    enforce_well_formedness:
        When ``True``, a process that invokes an operation while it already
        has a pending one gets :class:`PendingOperationError`.  Blocking
        operations (``rd``/``in``) cannot be guarded this way because they
        hold no lock while waiting; they are exempt.
    """

    def __init__(
        self,
        inner: AugmentedTupleSpace | None = None,
        *,
        history: HistoryRecorder | None = None,
        enforce_well_formedness: bool = False,
    ) -> None:
        self._inner = inner if inner is not None else AugmentedTupleSpace()
        self._lock = threading.RLock()
        self._history = history
        self._enforce_well_formedness = enforce_well_formedness
        self._pending: set[Any] = set()
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Operation plumbing
    # ------------------------------------------------------------------

    def _begin(self, process: Any) -> None:
        if not self._enforce_well_formedness or process is None:
            return
        with self._pending_lock:
            if process in self._pending:
                raise PendingOperationError(
                    f"process {process!r} invoked an operation while one is pending"
                )
            self._pending.add(process)

    def _end(self, process: Any) -> None:
        if not self._enforce_well_formedness or process is None:
            return
        with self._pending_lock:
            self._pending.discard(process)

    def _record(
        self, process: Any, operation: str, arguments: tuple, result: Any
    ) -> None:
        if self._history is not None:
            self._history.record(
                process=process, operation=operation, arguments=arguments, result=result
            )

    # ------------------------------------------------------------------
    # TupleSpaceInterface (anonymous invocations)
    # ------------------------------------------------------------------

    def out(self, entry: Entry, *, process: Any = None) -> bool:
        self._begin(process)
        try:
            with self._lock:
                result = self._inner.out(entry)
            self._record(process, "out", (entry,), result)
            return result
        finally:
            self._end(process)

    def rdp(self, template: Template, *, process: Any = None) -> Optional[Entry]:
        self._begin(process)
        try:
            with self._lock:
                result = self._inner.rdp(template)
            self._record(process, "rdp", (template,), result)
            return result
        finally:
            self._end(process)

    def inp(self, template: Template, *, process: Any = None) -> Optional[Entry]:
        self._begin(process)
        try:
            with self._lock:
                result = self._inner.inp(template)
            self._record(process, "inp", (template,), result)
            return result
        finally:
            self._end(process)

    def rd(
        self, template: Template, *, timeout: float | None = None, process: Any = None
    ) -> Entry:
        # Blocking reads must not hold the big lock while waiting, otherwise
        # no writer could ever insert the awaited tuple.  The inner space's
        # own condition variable provides the necessary atomicity of the
        # final "check and return" step.
        result = self._inner.rd(template, timeout=timeout)
        self._record(process, "rd", (template,), result)
        return result

    def in_(
        self, template: Template, *, timeout: float | None = None, process: Any = None
    ) -> Entry:
        result = self._inner.in_(template, timeout=timeout)
        self._record(process, "in", (template,), result)
        return result

    def cas(
        self, template: Template, entry: Entry, *, process: Any = None
    ) -> tuple[bool, Optional[Entry]]:
        self._begin(process)
        try:
            with self._lock:
                result = self._inner.cas(template, entry)
            self._record(process, "cas", (template, entry), result)
            return result
        finally:
            self._end(process)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[Entry, ...]:
        with self._lock:
            return self._inner.snapshot()

    @property
    def history(self) -> HistoryRecorder | None:
        return self._history

    @property
    def inner(self) -> AugmentedTupleSpace:
        return self._inner

    def bind(self, process: Any) -> BoundView:
        """Return a view of the space whose operations are attributed to ``process``."""
        return BoundView(self, process)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={len(self.snapshot())})"
