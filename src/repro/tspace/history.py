"""Operation histories: recording, accounting and consistency checking.

The experiments of the paper are analytic (bits, operations, resilience),
so the library needs a faithful way of *counting* what the algorithms do on
the shared object.  :class:`HistoryRecorder` collects one
:class:`OperationRecord` per completed tuple-space operation, including the
invoking process, the operation name, arguments, result, and invocation /
response sequence numbers.  From a history one can compute:

* the number of operations issued per process and per operation kind
  (experiment E6);
* the number of bits resident in the space (experiment E1); and
* whether the recorded sequential witness is consistent with tuple-space
  semantics (a lightweight linearizability check usable because the
  recording object, :class:`~repro.peo.PEATS`, serialises operations under
  one lock — the witness order *is* the linearization order).
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.tuples import Entry, Template, matches

__all__ = [
    "OperationRecord",
    "HistoryRecorder",
    "check_sequential_consistency",
    "replay_history",
]


@dataclasses.dataclass(frozen=True)
class OperationRecord:
    """A single completed operation on a shared object.

    Attributes
    ----------
    sequence:
        Position of the operation in the linearization order (assigned at
        response time by the recorder).
    process:
        Identifier of the invoking process (``None`` for anonymous callers).
    operation:
        Operation name: ``"out"``, ``"rdp"``, ``"inp"``, ``"rd"``, ``"in"``,
        ``"cas"`` (or any PEO operation name).
    arguments:
        The operation arguments, as passed by the caller.
    result:
        The value returned to the caller.
    denied:
        ``True`` if the reference monitor denied the invocation (PEO only).
    """

    sequence: int
    process: Any
    operation: str
    arguments: tuple
    result: Any
    denied: bool = False


class HistoryRecorder:
    """Thread-safe collector of :class:`OperationRecord` instances."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[OperationRecord] = []
        self._counter = itertools.count()

    def record(
        self,
        *,
        process: Any,
        operation: str,
        arguments: Sequence[Any],
        result: Any,
        denied: bool = False,
    ) -> OperationRecord:
        """Append a completed operation to the history and return its record."""
        with self._lock:
            record = OperationRecord(
                sequence=next(self._counter),
                process=process,
                operation=operation,
                arguments=tuple(arguments),
                result=result,
                denied=denied,
            )
            self._records.append(record)
            return record

    # ------------------------------------------------------------------
    # Accessors and accounting
    # ------------------------------------------------------------------

    def records(self) -> tuple[OperationRecord, ...]:
        """All records in linearization order."""
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[OperationRecord]:
        return iter(self.records())

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def operations_by_process(self) -> dict[Any, int]:
        """Number of completed operations per process."""
        counts: dict[Any, int] = {}
        for record in self.records():
            counts[record.process] = counts.get(record.process, 0) + 1
        return counts

    def operations_by_kind(self) -> dict[str, int]:
        """Number of completed operations per operation name."""
        counts: dict[str, int] = {}
        for record in self.records():
            counts[record.operation] = counts.get(record.operation, 0) + 1
        return counts

    def denied_count(self) -> int:
        """Number of invocations denied by the reference monitor."""
        return sum(1 for record in self.records() if record.denied)

    def total_operations(self) -> int:
        return len(self)


def replay_history(
    records: Iterable[OperationRecord],
) -> tuple[list[Entry], list[tuple[OperationRecord, str]]]:
    """Replay a history sequentially and report semantic violations.

    Returns ``(final_state, violations)`` where ``final_state`` is the
    multiset of entries a correct tuple space would hold after executing the
    allowed operations in the recorded order, and ``violations`` lists the
    records whose recorded result differs from what the sequential replay
    produces (with a human-readable reason).

    Only operations that were *executed* (not denied) participate in the
    replay; denied operations must not change the state.
    """
    state: list[Entry] = []
    violations: list[tuple[OperationRecord, str]] = []

    def find(template: Template) -> Optional[Entry]:
        for stored in state:
            if matches(stored, template):
                return stored
        return None

    for record in records:
        if record.denied:
            continue
        op = record.operation
        args = record.arguments
        if op == "out":
            state.append(args[0])
            if record.result not in (True, None):
                violations.append((record, "out should return True"))
        elif op in ("rdp", "rd"):
            found = find(args[0])
            if record.result is None:
                if found is not None:
                    violations.append((record, "read returned None but a match existed"))
            else:
                if not matches(record.result, args[0]):
                    violations.append((record, "read returned a non-matching tuple"))
                if record.result not in state:
                    violations.append((record, "read returned a tuple not in the space"))
        elif op in ("inp", "in"):
            found = find(args[0])
            if record.result is None:
                if found is not None:
                    violations.append((record, "inp returned None but a match existed"))
            else:
                if record.result in state:
                    state.remove(record.result)
                else:
                    violations.append((record, "inp removed a tuple not in the space"))
        elif op == "cas":
            template_arg, entry_arg = args[0], args[1]
            found = find(template_arg)
            result = record.result
            inserted = result[0] if isinstance(result, tuple) else bool(result)
            if found is None:
                state.append(entry_arg)
                if not inserted:
                    violations.append((record, "cas failed although no match existed"))
            else:
                if inserted:
                    violations.append((record, "cas succeeded although a match existed"))
        else:
            # Unknown operations (PEO-specific) are ignored by the replay.
            continue
    return state, violations


def check_sequential_consistency(records: Iterable[OperationRecord]) -> list[str]:
    """Return a list of violation descriptions for a recorded history.

    An empty list means the history, executed in its recorded linearization
    order, is consistent with the sequential specification of the augmented
    tuple space.  Because :class:`~repro.peo.PEATS` holds a lock for
    the whole duration of each operation, the recorded order respects
    real-time order, so an empty result certifies linearizability of the
    execution.
    """
    _, violations = replay_history(records)
    return [f"op#{record.sequence} {record.operation}: {reason}" for record, reason in violations]
