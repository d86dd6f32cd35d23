"""The PEATS deployment: N independent PBFT replica groups, one clock.

:class:`ShardedPEATS` is the one deployment shape above
:class:`~repro.replication.service.ReplicatedPEATS`: it owns one replica
group per shard, all registered on one shared
:class:`~repro.replication.network.SimulatedNetwork` (so a scenario's
virtual clock, seed and fault schedule span the whole cluster), and routes
client operations to the group owning the tuple's name via a
:class:`~repro.cluster.routing.ShardMap`.

The paper's Fig. 2 deployment — one PEATS replicated over ``3f + 1``
servers — is the **one-shard cluster** (``connect("replicated")``).  Its
replicas keep the plain ``replica-i`` ids, its client never routes, and
its space never scatter-gathers, so it costs exactly what one group costs.

Scaling argument: every request still funnels through *a* primary, but
with ``N`` shards there are ``N`` primaries ordering disjoint request
streams in parallel — under a per-message processing cost the cluster's
aggregate throughput approaches ``N`` times one group's (the shard-count
sweep in ``benchmarks/bench_sim_scenarios.py`` measures exactly this).

Group namespacing: with more than one shard, shard ``k``'s replicas are
``shard-k:replica-i``.  Groups never share an id, each group multicasts
only within its own id set, and every replica rejects protocol traffic
from identities outside its group, so the groups coexist on one network
without cross-talk.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Mapping, TYPE_CHECKING, Union

from repro.errors import ReplicationError
from repro.obs import resolve_obs
from repro.policy.policy import AccessPolicy
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.adversary import ReplicaFaultMode, fault_of, set_fault
from repro.replication.pbft import OrderingNode
from repro.replication.client import summed_statistics
from repro.replication.service import ReplicatedPEATS
from repro.cluster.client import ShardedClient
from repro.cluster.routing import RoutingPolicy, ShardMap
from repro.tuples import Entry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = ["ShardedPEATS"]


class ShardedPEATS:
    """A policy-enforced tuple space sharded across PBFT replica groups."""

    def __init__(
        self,
        policy: AccessPolicy,
        *,
        shards: int = 2,
        f: int = 1,
        routing: RoutingPolicy | None = None,
        network_config: NetworkConfig | None = None,
        network: "Transport | None" = None,
        replica_faults: Mapping[Union[int, tuple[int, int]], ReplicaFaultMode] | None = None,
        view_change_timeout: float | None = None,
        max_batch_size: int = 8,
        checkpoint_interval: int = 8,
        obs: Any = None,
    ) -> None:
        """``replica_faults`` keys may be ``(shard, index)`` pairs or flat
        node indexes (``shard = index // (3f + 1)``), matching how the
        fault schedules address nodes; each is applied with
        :func:`~repro.replication.adversary.set_fault` once the groups exist.

        ``network`` swaps the substrate: by default the cluster builds a
        fresh :class:`SimulatedNetwork`, but any
        :class:`~repro.net.transport.Transport` drops in.  On a real
        multi-reactor transport each shard's replicas are pinned to
        reactor ``shard % reactor_count`` **before** the groups register,
        so every replica group runs on its own event loop and the
        cluster's parallelism does not funnel through one reactor.
        """
        if shards < 1:
            raise ReplicationError("a cluster needs at least one shard")
        if network is not None and network_config is not None:
            raise ReplicationError(
                "pass either a shared network or a network_config, not both"
            )
        self.f = f
        self._policy = policy
        self._shard_map = ShardMap(shards, routing)
        #: Observability bundle shared by the network and every shard's
        #: replica group.
        self.obs = resolve_obs(obs)
        self._network = network or SimulatedNetwork(
            network_config or NetworkConfig(), obs=self.obs
        )
        group_size = 3 * f + 1
        # One shard is the paper's single group: its replicas keep the
        # plain ``replica-i`` ids.
        names = [f"shard-{shard}" for shard in range(shards)] if shards > 1 else [None]
        reactor_count = self._network.reactor_count
        for shard, name in enumerate(names):
            prefix = f"{name}:" if name else ""
            for index in range(group_size):
                self._network.pin(f"{prefix}replica-{index}", shard % reactor_count)
        self._groups = tuple(
            ReplicatedPEATS(
                policy,
                f=f,
                network=self._network,
                group=name,
                view_change_timeout=view_change_timeout,
                max_batch_size=max_batch_size,
                checkpoint_interval=checkpoint_interval,
                obs=self.obs,
            )
            for name in names
        )
        for key, mode in (replica_faults or {}).items():
            if isinstance(key, tuple):
                shard, index = key
            else:
                shard, index = divmod(key, group_size)
            if not 0 <= shard < shards or not 0 <= index < group_size:
                raise ReplicationError(
                    f"replica fault target {key!r} is outside the cluster "
                    f"({shards} shards of {group_size} replicas)"
                )
            set_fault(self._groups[shard].nodes[index], mode)
        self._clients: dict[Hashable, ShardedClient] = {}
        # Threads of one process may race to build its client; building
        # two would register the identity on the network twice.
        self._clients_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def policy(self) -> AccessPolicy:
        return self._policy

    @property
    def network(self) -> "Transport":
        return self._network

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def n_shards(self) -> int:
        return self._shard_map.n_shards

    @property
    def groups(self) -> tuple[ReplicatedPEATS, ...]:
        return self._groups

    def group(self, shard: int) -> ReplicatedPEATS:
        """The replica group owning ``shard``."""
        if not 0 <= shard < len(self._groups):
            raise ReplicationError(f"no shard {shard!r} in this cluster")
        return self._groups[shard]

    @property
    def nodes(self) -> tuple[OrderingNode, ...]:
        """Every ordering node of the cluster, in shard order.

        Flat indexing matches the fault schedules' integer addressing:
        node ``i`` lives on shard ``i // (3f + 1)``.
        """
        return tuple(node for group in self._groups for node in group.nodes)

    @property
    def replica_ids(self) -> tuple[str, ...]:
        return tuple(rid for group in self._groups for rid in group.replica_ids)

    @property
    def n_replicas(self) -> int:
        return self.n_shards * (3 * self.f + 1)

    def correct_nodes(self) -> list[OrderingNode]:
        return [node for node in self.nodes if fault_of(node) is ReplicaFaultMode.CORRECT]

    def check_timeouts(self) -> None:
        """Fire the view-change timers of every replica.

        The sweep goes through :meth:`Transport.post`: on the simulation
        that is a synchronous call (the caller *is* the event loop); on a
        real transport every node is pinned to a reactor and only ever
        touched on it, and the nudge typically arrives from a client's
        retransmission timer running on a different loop.
        """
        for node in self.nodes:
            self._network.post(node.replica_id, node.check_timeouts)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------

    def client(self, process: Hashable) -> ShardedClient:
        """The request/reply client for ``process`` (one network
        registration, shared by every shard; routing by name when there
        is more than one)."""
        client = self._clients.get(process)
        if client is None:
            with self._clients_lock:
                client = self._clients.get(process)
                if client is None:
                    client = ShardedClient(process, self)
                    # repro-lint: disable=RL006 — one routing client per
                    # process identity; processes are the deployment's
                    # principals, not per-request state.
                    self._clients[process] = client
        return client

    # ------------------------------------------------------------------
    # Administrative introspection (tests, benchmarks)
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[Entry, ...]:
        """The union of every shard's space, in shard order.

        Each shard's slice comes from that group's most advanced correct
        replica; tuples never move between shards, so concatenation is
        exact.
        """
        merged: list[Entry] = []
        for group in self._groups:
            correct = [n for n in group.nodes if fault_of(n) is ReplicaFaultMode.CORRECT]
            if not correct:
                raise ReplicationError("no correct replica available for a snapshot")
            most_advanced = max(correct, key=lambda node: node.last_executed)
            merged.extend(most_advanced.application.space.snapshot())
        return tuple(merged)

    def replica_state_digests(self) -> dict[str, str]:
        """State digest per replica (a group's correct replicas agree)."""
        return {node.replica_id: node.application.state_digest() for node in self.nodes}

    def stable_checkpoints(self) -> dict[str, int]:
        """Stable-checkpoint sequence per replica (log-truncation horizon)."""
        return {node.replica_id: node.stable_checkpoint for node in self.nodes}

    def client_statistics(self) -> dict[str, int]:
        """Counters summed over every routing client of the cluster."""
        return summed_statistics(self._clients.values())

    def shard_statistics(self) -> dict[int, dict[str, Any]]:
        """Per-shard ordering progress (executed sequences, views, ...) and
        the mean number of requests per batch its primaries proposed."""
        stats: dict[int, dict[str, Any]] = {}
        for shard, group in enumerate(self._groups):
            counts = [node.statistics for node in group.nodes]
            batches = sum(count["batches_proposed"] for count in counts)
            stats[shard] = {
                "last_executed": max(node.last_executed for node in group.nodes),
                "stable_checkpoint": max(node.stable_checkpoint for node in group.nodes),
                "views": tuple(node.view for node in group.nodes),
                "batch_size_mean": sum(c["requests_proposed"] for c in counts) / max(batches, 1),
            }
        return stats

    def __repr__(self) -> str:
        return (
            f"ShardedPEATS(policy={self._policy.name!r}, shards={self.n_shards}, "
            f"f={self.f}, replicas={self.n_replicas})"
        )
