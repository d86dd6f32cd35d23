"""The client of the PEATS cluster.

One :class:`ShardedClient` is one authenticated client identity registered
*once* on the cluster's shared network.  On a cluster of several shards
every submitted operation is routed by tuple name through the cluster's
:class:`~repro.cluster.routing.ShardMap` and broadcast only to the owning
replica group — the ``f + 1`` reply vote then runs against that group's
replicas.  A one-shard cluster does not route: every request goes
straight to its one group.  Templates whose name field is a wildcard
raise :class:`~repro.errors.CrossShardError` at submission time on a
routing client (see the routing module); the unified API's
:class:`~repro.api.ShardedSpace` sits above this client and resolves the
multi-shard forms (using this client's per-request ``replica_ids``
override): wildcard-name ``rdp``/``inp`` by scatter-gathering over every
group, wildcard-name and cross-shard ``cas`` as atomic transactions via
``Space.transact`` (:mod:`repro.txn`).  That handle —
``connect(service=cluster).bind(process)`` — is the only tuple-space view
of the cluster; this client is its request/reply transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.replication.client import PEATSClient, PendingRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cluster.service import ShardedPEATS

__all__ = ["ShardedClient"]


class ShardedClient(PEATSClient):
    """A :class:`PEATSClient` that routes each request to its owning shard
    (on a cluster of more than one)."""

    def __init__(self, client_id: Hashable, service: "ShardedPEATS") -> None:
        super().__init__(
            client_id,
            service.replica_ids,
            service.f,
            service.network,
            nudge_timeouts=service.check_timeouts,
            obs=service.obs,
        )
        self._service = service
        #: A one-shard cluster has nothing to route: its client is a plain
        #: PEATSClient of the one group.
        self._routes = service.n_shards > 1
        if self._routes:
            self._obs_routed = self.obs.registry.counter(
                "cluster_routed_total", "Requests routed to their owning shard"
            )
        self._obs_shard_children: dict[int, Any] = {}

    @property
    def service(self) -> "ShardedPEATS":
        return self._service

    def submit(
        self,
        operation: str,
        arguments: tuple,
        *,
        on_complete: Callable[[PendingRequest], None] | None = None,
        replica_ids: tuple[Hashable, ...] | None = None,
    ) -> PendingRequest:
        """Route by tuple name, then submit to the owning replica group.

        The request's client MAC vector covers exactly that group's
        replicas, and retransmissions go to the same group.  An explicit
        ``replica_ids`` override bypasses routing (escape hatch for tests),
        and so does a one-shard cluster (its one group is the default).
        """
        if replica_ids is not None or not self._routes:
            return super().submit(
                operation, arguments, on_complete=on_complete, replica_ids=replica_ids
            )
        # May raise CrossShardError (a wildcard name has no owning shard).
        shard = self._service.shard_map.route(operation, arguments)
        pending = super().submit(
            operation,
            arguments,
            on_complete=on_complete,
            replica_ids=self._service.group(shard).replica_ids,
        )
        pending.shard = shard
        counter = self._obs_shard_children.get(shard)
        if counter is None:
            # repro-lint: disable=RL006 — keyed by shard id, bounded by the
            # cluster topology fixed at construction.
            counter = self._obs_shard_children[shard] = self._obs_routed.labels(
                shard=str(shard)
            )
        counter.inc()
        if self._events.enabled:
            self._events.record(
                "route",
                self.client_id,
                self.network.now,
                key=pending.key,
                shard=shard,
                operation=operation,
            )
        return pending

    def __repr__(self) -> str:
        return (
            f"ShardedClient(client_id={self.client_id!r}, "
            f"shards={self._service.n_shards})"
        )
