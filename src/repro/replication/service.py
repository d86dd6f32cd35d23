"""One replica group of the replicated PEATS (the Fig. 2 architecture).

:class:`ReplicatedPEATS` wires ``3f + 1`` ordering nodes, each hosting a
:class:`~repro.replication.replica.PEATSReplica` (tuple space + reference
monitor), onto one network.  It is a building block, not a deployment:
:class:`~repro.cluster.service.ShardedPEATS` composes one group per shard
and owns the clients, and the paper's single-group deployment is the
one-shard cluster.  Programs reach either through the one client path,
:func:`repro.api.connect`, whose ``bind(process)`` views speak the same
interface as a local :class:`~repro.peo.peats.PEATS` view.  Every
consensus algorithm and universal construction in the library therefore
runs unchanged over the Byzantine fault-tolerant deployment — which is
exactly the claim of Section 4.

Usage::

    from repro.api import connect
    from repro.policy import weak_consensus_policy

    space = connect("replicated", policy=weak_consensus_policy(), f=1).bind("p1")
    inserted, _ = space.cas(template("DECISION", Formal("d")), entry("DECISION", 7))

The simulation is single-threaded, but not one-request-at-a-time:
blocking calls on the handle drive the network until their reply vote
succeeds, while :meth:`~repro.replication.client.PEATSClient.submit` is
the non-blocking path that lets the :mod:`repro.sim` scenario engine keep
dozens of clients' requests in flight concurrently under one virtual
clock.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.errors import ReplicationError
from repro.obs import resolve_obs
from repro.policy.policy import AccessPolicy
from repro.replication.pbft import OrderingNode
from repro.replication.replica import PEATSReplica

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = ["ReplicatedPEATS"]


class ReplicatedPEATS:
    """A Byzantine fault-tolerant PEATS replicated over ``3f + 1`` servers:
    one replica group of a :class:`~repro.cluster.service.ShardedPEATS`."""

    def __init__(
        self,
        policy: AccessPolicy,
        *,
        network: "Transport",
        f: int = 1,
        group: str | None = None,
        view_change_timeout: float | None = None,
        max_batch_size: int = 8,
        checkpoint_interval: int = 8,
        obs: Any = None,
    ) -> None:
        """``network``/``group`` let several replica groups share one clock.

        The cluster passes its network to every group and, when it has
        more than one, gives each a distinct ``group`` name, which
        prefixes the replica ids (``shard-0:replica-1``) so four groups'
        replicas and primaries coexist on one network without identity
        collisions or message cross-talk — each group only ever
        multicasts to its own id set.

        ``network`` may be any :class:`~repro.net.transport.Transport`:
        the simulated network or the real substrates of :mod:`repro.net`
        (asyncio loopback, TCP) — the protocol stack only ever touches the
        shared contract.
        """
        if f < 0:
            raise ReplicationError("f must be non-negative")
        self.f = f
        self.n_replicas = 3 * f + 1
        self.group = group
        self._policy = policy
        #: Observability bundle threaded into every replica and node.
        self.obs = resolve_obs(obs)
        self._network = network
        prefix = f"{group}:" if group is not None else ""
        self._replica_ids = tuple(
            f"{prefix}replica-{index}" for index in range(self.n_replicas)
        )
        self._nodes = tuple(
            OrderingNode(
                replica_id,
                self._replica_ids,
                f,
                PEATSReplica(
                    replica_id, policy, f=f, obs=self.obs, now_fn=lambda: self._network.now
                ),
                self._network,
                view_change_timeout=view_change_timeout,
                max_batch_size=max_batch_size,
                checkpoint_interval=checkpoint_interval,
                obs=self.obs,
            )
            for replica_id in self._replica_ids
        )

    @property
    def nodes(self) -> tuple[OrderingNode, ...]:
        return self._nodes

    @property
    def replica_ids(self) -> tuple[str, ...]:
        return self._replica_ids

    def __repr__(self) -> str:
        return (
            f"ReplicatedPEATS(policy={self._policy.name!r}, f={self.f}, "
            f"replicas={self.n_replicas})"
        )
