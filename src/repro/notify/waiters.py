"""Replica-side waiter table: who to wake when a matching tuple lands.

A :class:`WaiterTable` lives beside each
:class:`~repro.replication.replica.PEATSReplica` as **soft state**: waiter
registrations travel directly from clients (outside the ordered request
stream), so correct replicas may hold different tables at any instant and
the table is deliberately excluded from checkpoint state capture — only
the ``f + 1`` client-side vote over pushed notifications carries
cross-replica meaning.

The table is bounded on two axes (total entries and entries per client),
evicting the oldest registration of the offending scope when a cap is
hit: a Byzantine client spraying registrations can only displace *its
own* waiters, and the global cap keeps the per-insert matching scan — and
the table's memory — bounded no matter how many identities an attacker
mints.  Evicted or suppressed waiters are not an availability loss: the
client keeps its bounded fallback poll armed, so a missing notification
only costs latency.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Optional

from repro.tuples import Entry, Template, matches

__all__ = ["Waiter", "WaiterTable"]


@dataclasses.dataclass(frozen=True)
class Waiter:
    """One armed registration: wake ``client``'s waiter on a match."""

    client: Hashable
    waiter_id: int
    template: Template
    operation: str


class WaiterTable:
    """Bounded registry of per-template waiters on one replica."""

    def __init__(self, *, max_waiters: int = 1024, max_per_client: int = 32) -> None:
        if max_waiters < 1 or max_per_client < 1:
            raise ValueError("waiter-table caps must be positive")
        self.max_waiters = max_waiters
        self.max_per_client = max_per_client
        # Insertion-ordered: matching iterates oldest-first, so within one
        # replica the notification order is deterministic given the
        # (seeded) arrival order of registrations.
        self._waiters: dict[tuple[Hashable, int], Waiter] = {}
        self._per_client: dict[Hashable, int] = {}
        self._evictions = 0

    # ------------------------------------------------------------------
    # Registration lifecycle
    # ------------------------------------------------------------------

    def register(
        self, client: Hashable, waiter_id: int, template: Any, operation: str
    ) -> bool:
        """Arm one waiter; returns ``False`` for malformed registrations.

        Re-registering an existing ``(client, waiter_id)`` refreshes the
        template (idempotent for retransmitted registrations).
        """
        if isinstance(template, Entry):
            template = template.to_template()
        if not isinstance(template, Template):
            return False
        if not isinstance(operation, str):
            return False
        key = (client, waiter_id)
        if key not in self._waiters:
            if self._per_client.get(client, 0) >= self.max_per_client:
                self._evict_oldest(of_client=client)
            if len(self._waiters) >= self.max_waiters:
                self._evict_oldest()
            self._per_client[client] = self._per_client.get(client, 0) + 1
        self._waiters[key] = Waiter(
            client=client, waiter_id=waiter_id, template=template, operation=operation
        )
        return True

    def cancel(self, client: Hashable, waiter_id: int) -> bool:
        """Disarm one waiter (idempotent); returns whether it existed."""
        waiter = self._waiters.pop((client, waiter_id), None)
        if waiter is None:
            return False
        remaining = self._per_client.get(client, 0) - 1
        if remaining > 0:
            self._per_client[client] = remaining
        else:
            self._per_client.pop(client, None)
        return True

    def _evict_oldest(self, of_client: Optional[Hashable] = None) -> None:
        """Drop the oldest registration (of one client, or globally)."""
        for key in self._waiters:
            if of_client is None or key[0] == of_client:
                self._evictions += 1
                self.cancel(*key)
                return

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def matching(self, entry: Entry) -> tuple[Waiter, ...]:
        """Every armed waiter whose template matches ``entry``, oldest first."""
        return tuple(
            waiter
            for waiter in self._waiters.values()
            if matches(entry, waiter.template)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def waiters_of(self, client: Hashable) -> tuple[Waiter, ...]:
        return tuple(
            waiter for key, waiter in self._waiters.items() if key[0] == client
        )

    @property
    def evictions(self) -> int:
        return self._evictions

    def __len__(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"WaiterTable(size={len(self._waiters)}, cap={self.max_waiters})"
