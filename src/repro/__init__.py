"""repro — Policy-Enforced Augmented Tuple Spaces (PEATS).

A complete Python reproduction of

    Alysson Neves Bessani, Miguel Correia, Joni da Silva Fraga,
    Lau Cheuk Lung.  "Sharing Memory between Byzantine Processes Using
    Policy-Enforced Tuple Spaces."  ICDCS 2006 / IEEE TPDS 2009.

The library provides, from the bottom up:

* tuples/templates and the augmented tuple space (``out``, ``rd``, ``in``,
  ``rdp``, ``inp``, ``cas``);
* fine-grained access policies, the reference monitor, and policy-enforced
  objects (PEOs) including the **PEATS**;
* the paper's consensus algorithms (weak, strong binary/k-valued, default
  multivalued) and both universal constructions (lock-free and wait-free);
* the baselines of the prior ACL + sticky-bit model and their cost models;
* a fully simulated Byzantine fault-tolerant replicated PEATS (the Fig. 2
  / DepSpace-style deployment) on which everything above also runs.

Quick start::

    from repro import WeakConsensus

    consensus = WeakConsensus.create()
    assert consensus.propose("p1", "blue") == "blue"
    assert consensus.propose("p2", "red") == "blue"   # p1 won

See ``examples/`` and ``README.md`` for the full tour.
"""

from repro.consensus import (
    ConsensusOutcome,
    DefaultConsensus,
    StrongConsensus,
    WeakConsensus,
    run_consensus,
    run_consensus_threaded,
)
from repro.peo import PEATS, PolicyEnforcedRegister
from repro.policy import (
    AccessPolicy,
    Invocation,
    ReferenceMonitor,
    Rule,
    default_consensus_policy,
    lock_free_universal_policy,
    monotonic_register_policy,
    strong_consensus_policy,
    wait_free_universal_policy,
    weak_consensus_policy,
)
from repro.api import OperationFuture, Space, connect
from repro.cluster import ShardedPEATS
from repro.errors import OperationTimeoutError
from repro.net import AsyncioLoopbackTransport, TcpTransport, Transport
from repro.policy.library import BOTTOM
from repro.replication import ReplicatedPEATS
from repro.tspace import AugmentedTupleSpace
from repro.tuples import ANY, Entry, Formal, Template, entry, matches, template
from repro.universal import (
    LockFreeUniversalConstruction,
    ObjectInvocation,
    ObjectType,
    WaitFreeUniversalConstruction,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # tuples / spaces
    "ANY",
    "Formal",
    "Entry",
    "Template",
    "entry",
    "template",
    "matches",
    "AugmentedTupleSpace",
    # policies / PEOs
    "AccessPolicy",
    "Rule",
    "Invocation",
    "ReferenceMonitor",
    "PEATS",
    "PolicyEnforcedRegister",
    "weak_consensus_policy",
    "strong_consensus_policy",
    "default_consensus_policy",
    "lock_free_universal_policy",
    "wait_free_universal_policy",
    "monotonic_register_policy",
    "BOTTOM",
    # consensus
    "WeakConsensus",
    "StrongConsensus",
    "DefaultConsensus",
    "ConsensusOutcome",
    "run_consensus",
    "run_consensus_threaded",
    # universal constructions
    "ObjectType",
    "ObjectInvocation",
    "LockFreeUniversalConstruction",
    "WaitFreeUniversalConstruction",
    # replication / cluster
    "ReplicatedPEATS",
    "ShardedPEATS",
    # unified API
    "connect",
    "Space",
    "OperationFuture",
    "OperationTimeoutError",
    # real-network substrates
    "Transport",
    "AsyncioLoopbackTransport",
    "TcpTransport",
]
