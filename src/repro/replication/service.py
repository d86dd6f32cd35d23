"""The replicated PEATS deployment (the full Fig. 2 architecture).

:class:`ReplicatedPEATS` wires together the network, ``3f + 1`` ordering
nodes each hosting a :class:`~repro.replication.replica.PEATSReplica`
(tuple space + reference monitor), and one authenticated
:class:`~repro.replication.client.PEATSClient` per process identity.  It
is the *deployment*, not a tuple-space handle: programs reach it through
the one client path, :func:`repro.api.connect`, whose ``bind(process)``
views speak the same interface as a local :class:`~repro.peo.peats.PEATS`
view.  Every consensus algorithm and universal construction in the library
therefore runs unchanged over the Byzantine fault-tolerant deployment —
which is exactly the claim of Section 4.

Usage::

    from repro.api import connect
    from repro.policy import weak_consensus_policy
    from repro.replication import ReplicatedPEATS

    service = ReplicatedPEATS(weak_consensus_policy(), f=1)
    space = connect(service=service).bind("p1")
    inserted, _ = space.cas(template("DECISION", Formal("d")), entry("DECISION", 7))

The simulation is single-threaded, but not one-request-at-a-time:
blocking calls on the handle drive the network until their reply vote
succeeds, while :meth:`~repro.replication.client.PEATSClient.submit` is
the non-blocking path that lets the :mod:`repro.sim` scenario engine keep
dozens of clients' requests in flight concurrently under one virtual
clock.
"""

from __future__ import annotations

from typing import Any, Hashable, TYPE_CHECKING

from repro.errors import ReplicationError
from repro.obs import resolve_obs
from repro.policy.policy import AccessPolicy
from repro.replication.client import PEATSClient, summed_statistics
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.pbft import OrderingNode, ReplicaFaultMode
from repro.replication.replica import PEATSReplica
from repro.tuples import Entry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = ["ReplicatedPEATS"]


class ReplicatedPEATS:
    """A Byzantine fault-tolerant PEATS replicated over ``3f + 1`` servers."""

    def __init__(
        self,
        policy: AccessPolicy,
        *,
        f: int = 1,
        network_config: NetworkConfig | None = None,
        network: "Transport | None" = None,
        group: str | None = None,
        replica_faults: dict[int, ReplicaFaultMode] | None = None,
        view_change_timeout: float = 50.0,
        max_batch_size: int = 8,
        checkpoint_interval: int = 8,
        txn_ttl_ops: int | None = None,
        obs: Any = None,
    ) -> None:
        """``network``/``group`` let several replica groups share one clock.

        A sharded deployment (:class:`~repro.cluster.ShardedPEATS`) passes
        the same network to every group and gives each a distinct
        ``group`` name, which prefixes the replica ids
        (``shard-0:replica-1``) so four groups' replicas and primaries
        coexist on one network without identity collisions or message
        cross-talk — each group only ever multicasts to its own id set.

        ``network`` may be any :class:`~repro.net.transport.Transport`:
        the default is a fresh :class:`SimulatedNetwork`, and the real
        substrates of :mod:`repro.net` (asyncio loopback, TCP) drop in
        unchanged — the protocol stack only ever touches the shared
        contract.
        """
        if f < 0:
            raise ReplicationError("f must be non-negative")
        if network is not None and network_config is not None:
            raise ReplicationError(
                "pass either a shared network or a network_config, not both"
            )
        self.f = f
        self.n_replicas = 3 * f + 1
        self.group = group
        self._policy = policy
        #: Observability bundle threaded into the network, every replica,
        #: node and client.
        self.obs = resolve_obs(obs)
        self._network = network or SimulatedNetwork(
            network_config or NetworkConfig(), obs=self.obs
        )
        prefix = f"{group}:" if group is not None else ""
        self._replica_ids = tuple(
            f"{prefix}replica-{index}" for index in range(self.n_replicas)
        )
        replica_faults = replica_faults or {}
        self._nodes: list[OrderingNode] = []
        for index, replica_id in enumerate(self._replica_ids):
            application = PEATSReplica(
                replica_id,
                policy,
                f=f,
                txn_ttl_ops=txn_ttl_ops,
                obs=self.obs,
                now_fn=lambda: self._network.now,
            )
            node = OrderingNode(
                replica_id,
                self._replica_ids,
                f,
                application,
                self._network,
                view_change_timeout=view_change_timeout,
                fault_mode=replica_faults.get(index, ReplicaFaultMode.CORRECT),
                max_batch_size=max_batch_size,
                checkpoint_interval=checkpoint_interval,
                obs=self.obs,
            )
            self._nodes.append(node)
        self._clients: dict[Hashable, PEATSClient] = {}

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
    def nodes(self) -> tuple[OrderingNode, ...]:
        return tuple(self._nodes)

    @property
    def replica_ids(self) -> tuple[str, ...]:
        return self._replica_ids

    def correct_nodes(self) -> list[OrderingNode]:
        return [node for node in self._nodes if node.fault_mode is ReplicaFaultMode.CORRECT]

    def check_timeouts(self) -> None:
        """Fire the view-change timers of every replica.

        The sweep goes through :meth:`Transport.post`: on the simulation
        that is a synchronous call (the caller *is* the event loop); on a
        real transport every node is pinned to a reactor and only ever
        touched on it, and the nudge typically arrives from a client's
        retransmission timer running on a different loop.
        """
        for node in self._nodes:
            self._network.post(node.replica_id, node.check_timeouts)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------

    def client(self, process: Hashable) -> PEATSClient:
        """The raw request/reply client for ``process`` (created on demand)."""
        if process not in self._clients:
            # repro-lint: disable=RL006 — one client per process identity;
            # processes are deployment principals, not per-request state.
            self._clients[process] = PEATSClient(
                process,
                self._replica_ids,
                self.f,
                self._network,
                nudge_timeouts=self.check_timeouts,
                obs=self.obs,
            )
        return self._clients[process]

    # ------------------------------------------------------------------
    # Administrative introspection (tests, benchmarks)
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[Entry, ...]:
        """Snapshot of the tuple space taken from a correct, up-to-date replica."""
        correct = self.correct_nodes()
        if not correct:
            raise ReplicationError("no correct replica available for a snapshot")
        most_advanced = max(correct, key=lambda node: node.last_executed)
        return most_advanced.application.space.snapshot()

    def replica_state_digests(self) -> dict[str, str]:
        """State digest per replica (correct replicas must agree)."""
        return {node.replica_id: node.application.state_digest() for node in self._nodes}

    def stable_checkpoints(self) -> dict[str, int]:
        """Stable-checkpoint sequence per replica (log-truncation horizon)."""
        return {node.replica_id: node.stable_checkpoint for node in self._nodes}

    def client_statistics(self) -> dict[str, int]:
        """Counters summed over every attached client."""
        return summed_statistics(self._clients.values())

    def __repr__(self) -> str:
        return (
            f"ReplicatedPEATS(policy={self._policy.name!r}, f={self.f}, "
            f"replicas={self.n_replicas})"
        )
