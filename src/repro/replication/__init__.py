"""A simulated Byzantine fault-tolerant replicated PEATS (Fig. 2).

The paper's deployment model replicates the PEATS over ``3f + 1`` servers
coordinated by a Byzantine fault-tolerant state-machine-replication
protocol; an interceptor (reference monitor) runs in every replica and the
clients vote on replies.  The DEPSPACE system [26] is the authors'
implementation of that architecture.

We do not have their testbed, so this package provides a faithful,
fully-simulated substitute:

* :mod:`repro.replication.crypto` — HMAC-authenticated channels (shared
  session keys; the "IPSec/SSL" of Section 4);
* :mod:`repro.replication.network` — the delivery core every transport
  shares (with its per-node fault table) and a deterministic
  discrete-event network with seeded latencies and message loss;
* :mod:`repro.replication.adversary` — Byzantine replicas as behaviour of
  a node: the :class:`ReplicaFaultMode` presets over the fault table;
* :mod:`repro.replication.pbft` — the ordering core of a simplified
  PBFT-style total-order protocol (pre-prepare / prepare / commit with
  ``2f + 1`` quorums), the "replica coordination" box of Fig. 2, with its
  two other halves mixed into the one ``OrderingNode`` from
  :mod:`repro.replication.checkpointing` (checkpoint certificates, log
  truncation, state transfer) and :mod:`repro.replication.viewchange`;
* :mod:`repro.replication.application` — the one interface through which
  the ordering core reaches the state machine it replicates;
* :mod:`repro.replication.replica` — the replica application: reference
  monitor + augmented tuple space executing ordered requests
  deterministically, and the outbox of replica→client pushes;
* :mod:`repro.replication.client` — the client proxy that multicasts
  requests and accepts a result vouched for by ``f + 1`` matching replies;
* :mod:`repro.replication.service` — :class:`ReplicatedPEATS`, one
  replica group that wires everything together; the deployment that
  composes groups and keeps one authenticated client per process identity
  is :class:`repro.cluster.ShardedPEATS`, and the paper's single group is
  its one-shard case.

Programs reach a deployment through the one client path:
``repro.api.connect("replicated", policy=...)`` (or
``connect(service=ShardedPEATS(policy, shards=1))``) returns a handle
whose ``bind(process)`` views speak the local PEATS interface, so every
algorithm in the library runs unchanged on top of it.
"""

from repro.replication.adversary import ReplicaFaultMode, fault_of, set_fault
from repro.replication.client import PEATSClient, PendingRequest
from repro.replication.crypto import KeyStore, MessageAuthenticator
from repro.replication.network import NetworkConfig, SimulatedNetwork, Timer
from repro.replication.pbft import OrderingNode
from repro.replication.replica import PEATSReplica
from repro.replication.service import ReplicatedPEATS

__all__ = [
    "KeyStore",
    "MessageAuthenticator",
    "SimulatedNetwork",
    "NetworkConfig",
    "Timer",
    "OrderingNode",
    "ReplicaFaultMode",
    "set_fault",
    "fault_of",
    "PEATSReplica",
    "PEATSClient",
    "PendingRequest",
    "ReplicatedPEATS",
]
