"""repro.cluster — the tuple space sharded across PBFT replica groups.

One replica group of :mod:`repro.replication` caps throughput at what one
PBFT instance can order: batching amortises the per-instance
protocol cost, but every request still funnels through one primary.  This
package scales *out* instead: tuple-space operations are keyed by the
tuple's first field (its name), so the space partitions into independent
replica groups ordering disjoint request streams in parallel —

* :mod:`repro.cluster.routing` — :class:`ShardMap` + pluggable
  :class:`RoutingPolicy` (hash, name-range, explicit assignment): the
  deterministic name → shard function;
* :mod:`repro.cluster.service` — :class:`ShardedPEATS`: N independent
  :class:`~repro.replication.service.ReplicatedPEATS` groups with
  namespaced replica ids on one shared
  :class:`~repro.replication.network.SimulatedNetwork` clock.  It is the
  one networked deployment: at one shard it is the single-group
  deployment (``connect("replicated")``), with plain ``replica-i`` ids;
* :mod:`repro.cluster.client` — :class:`ShardedClient`: one client
  identity whose requests are routed to the owning group (templates with
  wildcard name fields raise :class:`~repro.errors.CrossShardError` at
  this layer); at one shard it does not route.

A :class:`ShardedPEATS` is the deployment; programs reach it through the
one client path, :func:`repro.api.connect`, whose ``bind(process)`` views
route concrete names through the client above and resolve the multi-shard
forms it rejects — scatter-gather for wildcard-name reads, atomic
transactions (``Space.transact``) for wildcard/cross-shard ``cas``.

Quick start::

    from repro.api import connect
    from repro.cluster import ShardedPEATS
    from repro.sim import open_sim_policy
    from repro.tuples import entry, template, Formal

    cluster = ShardedPEATS(open_sim_policy(), shards=4, f=1)
    space = connect(service=cluster).bind("p1")
    space.out(entry("JOB", 1))                      # routed by name "JOB"
    match = space.rdp(template("JOB", Formal("x")))  # same shard, found
"""

from repro.cluster.client import ShardedClient
from repro.cluster.routing import (
    ExplicitRouting,
    HashRouting,
    RangeRouting,
    RoutingPolicy,
    ShardMap,
)
from repro.cluster.service import ShardedPEATS

__all__ = [
    "RoutingPolicy",
    "HashRouting",
    "RangeRouting",
    "ExplicitRouting",
    "ShardMap",
    "ShardedPEATS",
    "ShardedClient",
]
