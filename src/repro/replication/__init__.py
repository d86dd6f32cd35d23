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
* :mod:`repro.replication.network` — a deterministic discrete-event network
  with seeded latencies, message loss and Byzantine corruption hooks;
* :mod:`repro.replication.pbft` — a simplified PBFT-style total-order
  protocol (pre-prepare / prepare / commit with ``2f + 1`` quorums and a
  view change), the "replica coordination" box of Fig. 2;
* :mod:`repro.replication.replica` — the replica application: reference
  monitor + augmented tuple space executing ordered requests
  deterministically;
* :mod:`repro.replication.client` — the client proxy that multicasts
  requests and accepts a result vouched for by ``f + 1`` matching replies;
* :mod:`repro.replication.service` — :class:`ReplicatedPEATS`, the
  deployment that wires everything together and keeps one authenticated
  client per process identity.

Programs reach a deployment through the one client path:
``repro.api.connect(service=ReplicatedPEATS(...))`` (or
``connect("replicated", policy=...)`` to build one) returns a handle whose
``bind(process)`` views speak the local PEATS interface, so every
algorithm in the library runs unchanged on top of it.
"""

from repro.replication.client import PEATSClient, PendingRequest
from repro.replication.crypto import KeyStore, MessageAuthenticator
from repro.replication.network import NetworkConfig, SimulatedNetwork, Timer
from repro.replication.pbft import OrderingNode, ReplicaFaultMode
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
    "PEATSReplica",
    "PEATSClient",
    "PendingRequest",
    "ReplicatedPEATS",
]
