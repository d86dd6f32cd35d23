"""Integration tests: the paper's algorithms over the replicated PEATS.

Section 4 claims the algorithms run unchanged on the Fig. 2 deployment;
these tests run them end to end on the simulated replicated service, with
Byzantine clients *and* Byzantine replicas at the same time.
"""

import pytest

from repro.api import connect
from repro.consensus import DefaultConsensus, StrongConsensus, WeakConsensus, run_consensus
from repro.consensus.base import check_agreement, check_strong_validity
from repro.model.faults import bottom_forcing_byzantine, unjustified_deciding_byzantine
from repro.policy import (
    AccessPolicy,
    Rule,
    default_consensus_policy,
    lock_free_universal_policy,
    strong_consensus_policy,
    wait_free_universal_policy,
    weak_consensus_policy,
)
from repro.policy.library import BOTTOM
from repro.replication import ReplicatedPEATS
from repro.replication.network import NetworkConfig
from repro.replication.pbft import ReplicaFaultMode
from repro.tuples import ANY, entry, template
from repro.universal import LockFreeUniversalConstruction, WaitFreeUniversalConstruction
from repro.universal.emulated import counter_type, kv_store_type


class TestConsensusOverReplication:
    def test_weak_consensus(self):
        service = ReplicatedPEATS(weak_consensus_policy(), f=1)
        consensus = WeakConsensus(connect(service=service))
        assert consensus.propose("p1", "v1") == "v1"
        assert consensus.propose("p2", "v2") == "v1"
        assert len(set(service.replica_state_digests().values())) == 1

    def test_strong_consensus_with_byzantine_client_and_lying_replica(self):
        processes = list(range(4))
        service = ReplicatedPEATS(
            strong_consensus_policy(processes, 1),
            f=1,
            replica_faults={3: ReplicaFaultMode.LYING},
        )
        consensus = StrongConsensus(processes, 1, space=connect(service=service))
        proposals = {0: 1, 1: 1, 2: 1}
        run = run_consensus(
            consensus,
            proposals,
            byzantine={3: unjustified_deciding_byzantine(value=0, fake_supporters=(3,))},
        )
        assert run.terminated
        assert run.decision() == 1
        assert check_agreement(run.outcomes.values())
        assert check_strong_validity(run.outcomes.values(), proposals.values())
        correct_digests = {
            digest
            for replica, digest in service.replica_state_digests().items()
            if replica != "replica-3"
        }
        assert len(correct_digests) == 1

    def test_default_consensus_over_replication(self):
        processes = list(range(4))
        service = ReplicatedPEATS(default_consensus_policy(processes, 1), f=1)
        consensus = DefaultConsensus(processes, 1, space=connect(service=service))
        run = run_consensus(
            consensus,
            {0: "a", 1: "a", 2: "b"},
            byzantine={3: bottom_forcing_byzantine()},
        )
        assert run.terminated
        assert run.decision() == "a"

    def test_strong_consensus_survives_a_crashed_backup_replica(self):
        processes = list(range(4))
        service = ReplicatedPEATS(
            strong_consensus_policy(processes, 1),
            f=1,
            replica_faults={2: ReplicaFaultMode.CRASHED},
        )
        consensus = StrongConsensus(processes, 1, space=connect(service=service))
        run = run_consensus(consensus, {p: 0 for p in range(4)})
        assert run.terminated and run.decision() == 0


class TestUniversalConstructionsOverReplication:
    def test_lock_free_counter(self):
        service = ReplicatedPEATS(lock_free_universal_policy(), f=1)
        shared = connect(service=service)
        construction = LockFreeUniversalConstruction(counter_type(), space=shared.bind("w1"))
        handle = construction.handle("w1")
        tickets = [handle.invoke("increment") for _ in range(4)]
        assert tickets == [0, 1, 2, 3]

    def test_wait_free_kv_store_two_clients(self):
        processes = ["alice", "bob"]
        service = ReplicatedPEATS(wait_free_universal_policy(processes), f=1)
        shared = connect(service=service)
        construction = WaitFreeUniversalConstruction(kv_store_type(), processes, space=shared)
        alice = construction.handle("alice")
        bob = construction.handle("bob")
        alice.invoke("put", "k", "from-alice")
        assert bob.invoke("get", "k") == "from-alice"
        bob.invoke("put", "k", "from-bob")
        assert alice.invoke("get", "k") == "from-bob"

    def test_replicas_converge_after_universal_construction_traffic(self):
        service = ReplicatedPEATS(lock_free_universal_policy(), f=1)
        construction = LockFreeUniversalConstruction(
            counter_type(), space=connect(service=service).bind("w")
        )
        handle = construction.handle("w")
        for _ in range(5):
            handle.invoke("increment")
        assert len(set(service.replica_state_digests().values())) == 1


class TestViewChangeUnderLoad:
    def test_consensus_completes_after_primary_crash(self):
        processes = list(range(4))
        service = ReplicatedPEATS(
            strong_consensus_policy(processes, 1),
            f=1,
            replica_faults={0: ReplicaFaultMode.CRASHED},
            view_change_timeout=10.0,
        )
        consensus = StrongConsensus(processes, 1, space=connect(service=service))
        run = run_consensus(consensus, {p: 1 for p in range(4)})
        assert run.terminated and run.decision() == 1
        assert all(node.view >= 1 for node in service.correct_nodes())


class TestConcurrentRequestsFromOneProcess:
    """Regression: the replicas keep one request id per client, so a later
    request that overtook an earlier one on the network made the earlier
    one stale for good, and it failed with QuorumError.  The client now
    keeps one request in flight per replica group and queues the rest."""

    OPERATIONS = (
        ("out", (entry("K", 0),)),
        ("out", (entry("K", 1),)),
        ("rdp", (template("K", ANY),)),
        ("inp", (template("K", ANY),)),
        ("out", (entry("K", 2),)),
        ("inp", (template("K", 1),)),
        ("out", (entry("K", 3),)),
    )

    @staticmethod
    def run(space):
        futures = [
            space.submit(operation, arguments, process="p")
            for operation, arguments in TestConcurrentRequestsFromOneProcess.OPERATIONS
        ]
        results = []
        for future in futures:
            space._drive(future)
            results.append(future.result())
        return results, sorted(space.snapshot(), key=repr)

    def test_every_op_resolves_in_submission_order(self):
        policy = AccessPolicy([Rule(op, op) for op in ("out", "rdp", "inp")])
        expected = self.run(connect("local", policy=policy))
        for seed in range(40):
            space = connect(
                "replicated", policy=policy, network_config=NetworkConfig(seed=seed)
            )
            assert self.run(space) == expected, f"seed {seed}"
