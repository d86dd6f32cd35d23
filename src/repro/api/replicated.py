"""The replicated backend of the unified API: one PBFT group.

:class:`ReplicatedSpace` fronts a :class:`~repro.replication.service.
ReplicatedPEATS`.  Each ``process`` maps to one authenticated
:class:`~repro.replication.client.PEATSClient` identity (memoized on the
service), probes resolve through the ``f + 1`` reply vote, and blocking
reads are the Section 4 polling recipe scheduled on the network's virtual
clock — all in **simulated milliseconds**.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.futures import OperationFuture
from repro.api.space import NetworkedSpace
from repro.replication.service import ReplicatedPEATS

__all__ = ["ReplicatedSpace"]


class ReplicatedSpace(NetworkedSpace):
    """Unified handle over one ``3f + 1``-replica PBFT group."""

    backend = "replicated"
    _service: ReplicatedPEATS

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def _submit_probe(
        self, operation: str, arguments: tuple[Any, ...], process: Hashable
    ) -> OperationFuture:
        return self._service.client(process).submit(operation, tuple(arguments))

    def _submit_txn(self, legs: tuple[Any, ...], process: Hashable) -> OperationFuture:
        """One group holds every leg, so one ordered ``txn_exec`` request
        is the whole commit: the PBFT instance is the atomicity."""
        return self._service.client(process).submit("txn_exec", (legs,))

    # ------------------------------------------------------------------
    # Notification channel (repro.notify)
    # ------------------------------------------------------------------

    def _waiter_groups(
        self, template: Any
    ) -> tuple[tuple[Optional[int], tuple[Hashable, ...]], ...]:
        """Every waiter lives on the one group; its events carry no shard."""
        return ((None, self._service.replica_ids),)

    def _stats_extra(self) -> dict[str, Any]:
        return {
            "nodes": {node.replica_id: node.statistics for node in self._service.nodes},
            "notify": {
                "waiters": {
                    node.replica_id: len(node.application.waiters)
                    for node in self._service.nodes
                },
            },
        }

    def __repr__(self) -> str:
        return f"ReplicatedSpace(f={self._service.f}, replicas={self._service.n_replicas})"
