"""A distributed ticket lock emulated over the PEATS.

The lock is a deterministic object type run under one of the paper's
universal constructions (wait-free by default):

* ``acquire(process)`` draws a ticket (fetch&increment) and records it;
* the lock is *held* by the process whose ticket equals the ``serving``
  counter;
* ``release(process)`` advances ``serving`` — only the current holder's
  release is honoured, so a Byzantine process cannot release someone
  else's lock; it can refuse to release its own, which is why real
  deployments combine the lock with a lease (the ``steal`` operation
  models lease expiry: any process may evict the current holder after the
  application-level lease has expired).

Because the object is emulated by a universal construction over the PEATS,
mutual exclusion follows from the total order of SEQ tuples: two processes
can never both observe ``my_ticket == serving`` for the same ``serving``
value.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.universal.object_type import ObjectInvocation, ObjectType
from repro.universal.waitfree import WaitFreeUniversalConstruction
from repro.universal.lockfree import LockFreeUniversalConstruction

__all__ = ["ticket_lock_type", "DistributedLock"]


def ticket_lock_type() -> ObjectType:
    """Object type of the ticket lock.

    State: ``(next_ticket, serving, holder_tickets)`` where
    ``holder_tickets`` is a frozenset of ``(process, ticket)`` pairs for
    tickets not yet served.
    """

    def apply(state, invocation: ObjectInvocation):
        next_ticket, serving, holders = state
        holder_map = dict(holders)
        operation = invocation.operation
        if operation == "acquire":
            process = invocation.args[0]
            if process in holder_map:
                # Re-acquiring while still queued returns the same ticket.
                return state, holder_map[process]
            ticket = next_ticket
            holder_map[process] = ticket
            return (next_ticket + 1, serving, frozenset(holder_map.items())), ticket
        if operation == "release":
            process = invocation.args[0]
            ticket = holder_map.get(process)
            if ticket is None or ticket != serving:
                return state, False  # not the holder: release refused
            del holder_map[process]
            return (next_ticket, serving + 1, frozenset(holder_map.items())), True
        if operation == "steal":
            # Lease expiry: evict whoever holds the 'serving' ticket.
            evicted = [p for p, ticket in holder_map.items() if ticket == serving]
            for process in evicted:
                del holder_map[process]
            return (next_ticket, serving + 1, frozenset(holder_map.items())), bool(evicted)
        if operation == "holder":
            for process, ticket in holder_map.items():
                if ticket == serving:
                    return state, process
            return state, None
        if operation == "serving":
            return state, serving
        raise ValueError(f"ticket lock has no operation {operation!r}")

    return ObjectType(
        name="ticket-lock",
        initial_state=(0, 0, frozenset()),
        apply=apply,
        operations=("acquire", "release", "steal", "holder", "serving"),
    )


class DistributedLock:
    """Mutual exclusion for a known set of processes over a PEATS.

    ``space`` may be any shared space offering ``bind(process)`` — a local
    :class:`~repro.peo.peats.PEATS` or a :class:`~repro.api.Space` from
    :func:`repro.api.connect` — so one lock program runs unmodified over the
    in-process, replicated and sharded deployments.
    """

    def __init__(
        self,
        processes: Sequence[Hashable],
        *,
        wait_free: bool = True,
        space: Any | None = None,
    ) -> None:
        self._processes = tuple(processes)
        if wait_free:
            self._construction = WaitFreeUniversalConstruction(
                ticket_lock_type(), self._processes, space=space
            )
        else:
            self._construction = LockFreeUniversalConstruction(ticket_lock_type(), space=space)
        self._handles = {}

    @property
    def construction(self):
        return self._construction

    def _handle(self, process: Hashable):
        if process not in self._handles:
            self._handles[process] = self._construction.handle(process)
        return self._handles[process]

    # ------------------------------------------------------------------
    # Lock API
    # ------------------------------------------------------------------

    def acquire(self, process: Hashable) -> int:
        """Draw (or re-read) ``process``'s ticket; returns the ticket number."""
        return self._handle(process).invoke("acquire", process)

    def holds(self, process: Hashable) -> bool:
        """Whether ``process`` currently holds the lock."""
        handle = self._handle(process)
        return handle.invoke("holder") == process

    def release(self, process: Hashable) -> bool:
        """Release the lock; returns False when ``process`` is not the holder."""
        return self._handle(process).invoke("release", process)

    def steal(self, process: Hashable) -> bool:
        """Evict the current holder (models lease expiry); any process may call it."""
        return self._handle(process).invoke("steal")

    def current_holder(self, process: Hashable) -> Any:
        """The process currently being served, observed by ``process``."""
        return self._handle(process).invoke("holder")

    def __repr__(self) -> str:
        return f"DistributedLock(processes={len(self._processes)})"
