"""Unit tests for the ordering node (PBFT-style protocol internals)."""

import dataclasses

import pytest

from repro.policy import AccessPolicy, Rule
from repro.replication.crypto import KeyStore, MessageAuthenticator, digest
from repro.replication.messages import (
    Batch,
    ClientRequest,
    Commit,
    PrePrepare,
    Prepare,
    ViewChange,
    authenticate_request,
)
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication import OrderingNode, ReplicaFaultMode, set_fault
from repro.replication.replica import PEATSReplica
from repro.tuples import entry


def open_policy():
    return AccessPolicy([Rule("out", "out"), Rule("rdp", "rdp")], name="open")


def make_cluster(n=4, f=1, faults=None):
    network = SimulatedNetwork(NetworkConfig(seed=3))
    replica_ids = tuple(f"r{i}" for i in range(n))
    faults = faults or {}
    nodes = []
    for index, replica_id in enumerate(replica_ids):
        nodes.append(
            OrderingNode(
                replica_id,
                replica_ids,
                f,
                PEATSReplica(replica_id, open_policy()),
                network,
                view_change_timeout=10.0,
            )
        )
        set_fault(nodes[-1], faults.get(index, ReplicaFaultMode.CORRECT))
    replies = []
    network.register("client", lambda sender, payload: replies.append((sender, payload)))
    return network, nodes, replies


# Same default KeyStore as the test networks above, so client MAC vectors
# computed here verify at the replicas.
_AUTH = MessageAuthenticator(KeyStore())
_REPLICAS = tuple(f"r{i}" for i in range(4))


def make_request(request_id=0, operation="out", arguments=None, client="client"):
    request = ClientRequest(
        client=client,
        request_id=request_id,
        operation=operation,
        arguments=arguments if arguments is not None else (entry("A", request_id),),
    )
    return authenticate_request(request, _AUTH, _REPLICAS)


def make_batch(*requests):
    return Batch(requests=tuple(requests))


class TestOrderingBasics:
    def test_primary_and_quorum(self):
        _, nodes, _ = make_cluster()
        assert nodes[0].is_primary
        assert not nodes[1].is_primary
        assert nodes[0].quorum == 3
        assert nodes[0].primary_of(1) == "r1"

    def test_request_is_ordered_executed_and_replied(self):
        network, nodes, replies = make_cluster()
        request = make_request()
        network.broadcast("client", [n.replica_id for n in nodes], request)
        network.run()
        assert all(node.last_executed == 1 for node in nodes)
        assert len(replies) == 4
        digests = {reply.result_digest for _, reply in replies}
        assert len(digests) == 1

    def test_sequence_numbers_are_contiguous_across_requests(self):
        network, nodes, _ = make_cluster()
        for i in range(5):
            network.broadcast("client", [n.replica_id for n in nodes], make_request(i))
            network.run()
        assert all(node.last_executed == 5 for node in nodes)
        digests = {node.application.state_digest() for node in nodes}
        assert len(digests) == 1

    def test_retransmitted_request_is_not_executed_twice(self):
        network, nodes, replies = make_cluster()
        request = make_request()
        for _ in range(3):
            network.broadcast("client", [n.replica_id for n in nodes], request)
            network.run()
        assert all(node.last_executed == 1 for node in nodes)
        assert all(len(node.application.space.snapshot()) == 1 for node in nodes)
        # Retransmissions are answered from the reply cache.
        assert len(replies) >= 4

    def test_pre_prepare_from_non_primary_is_ignored(self):
        network, nodes, _ = make_cluster()
        batch = make_batch(make_request())
        rogue = PrePrepare(
            view=0,
            sequence=1,
            batch_digest=digest(batch),
            batch=batch,
            primary="r2",
        )
        network.send("r2", "r1", rogue)
        network.run()
        assert nodes[1].last_executed == 0

    def test_pre_prepare_with_wrong_digest_is_ignored(self):
        network, nodes, _ = make_cluster()
        batch = make_batch(make_request())
        forged = PrePrepare(
            view=0, sequence=1, batch_digest="bogus", batch=batch, primary="r0"
        )
        network.send("r0", "r1", forged)
        network.run()
        assert nodes[1].last_executed == 0

    def test_commit_quorum_needed_before_execution(self):
        network, nodes, _ = make_cluster()
        backup = nodes[1]
        batch = make_batch(make_request())
        message = PrePrepare(
            view=0,
            sequence=1,
            batch_digest=digest(batch),
            batch=batch,
            primary="r0",
        )
        backup.on_message("r0", message)
        # Only one prepare (from r2): not enough for the 2f+1 quorum.
        backup.on_message("r2", Prepare(view=0, sequence=1, batch_digest=digest(batch), replica="r2"))
        assert backup.last_executed == 0


class TestRelayedRequestVerification:
    """A backup skips re-verifying a relayed request only when it is the
    very object the backup verified on direct receipt."""

    @staticmethod
    def relay(backup, request):
        """Hand ``backup`` the primary's pre-prepare of ``request`` alone;
        how many client MACs it checked, and whether it sent a PREPARE."""
        checked = []
        verify = backup._client_authenticated
        backup._client_authenticated = lambda r: checked.append(r) or verify(r)
        batch = make_batch(request)
        sent = backup.network.statistics["frames_sent"]
        backup.on_message(
            "r0",
            PrePrepare(view=0, sequence=1, batch_digest=digest(batch), batch=batch, primary="r0"),
        )
        return len(checked), backup.network.statistics["frames_sent"] > sent

    def test_the_request_verified_on_receipt_is_not_verified_again(self):
        _, nodes, _ = make_cluster()
        request = make_request(1)
        nodes[1].on_message("client", request)
        assert self.relay(nodes[1], request) == (0, True)

    def test_same_key_other_arguments_under_the_original_auth_is_rejected(self):
        _, nodes, _ = make_cluster()
        request = make_request(1)
        nodes[1].on_message("client", request)
        spliced = dataclasses.replace(request, arguments=(entry("A", 99),))
        assert self.relay(nodes[1], spliced) == (1, False)

    def test_an_equal_copy_with_other_types_is_verified_and_rejected(self):
        # ``==`` equates 1 and True; the client's MAC does not.
        _, nodes, _ = make_cluster()
        request = make_request(1)
        nodes[1].on_message("client", request)
        retyped = dataclasses.replace(request, arguments=(entry("A", True),))
        assert retyped == request
        assert self.relay(nodes[1], retyped) == (1, False)

    def test_a_request_never_seen_directly_is_verified(self):
        _, nodes, _ = make_cluster()
        assert self.relay(nodes[1], make_request(1)) == (1, True)

    def test_a_relayed_request_with_an_unhashable_client_is_rejected(self):
        _, nodes, _ = make_cluster()
        malformed = dataclasses.replace(make_request(1), client=["client"])
        assert self.relay(nodes[1], malformed) == (0, False)

    def test_a_forged_request_never_seen_directly_is_rejected(self):
        _, nodes, _ = make_cluster()
        forged = dataclasses.replace(make_request(1), auth=(("r1", "0" * 64),))
        assert self.relay(nodes[1], forged) == (1, False)


class TestViewChange:
    def test_crashed_primary_is_replaced(self):
        network, nodes, replies = make_cluster(faults={0: ReplicaFaultMode.CRASHED})
        request = make_request()
        network.broadcast("client", [n.replica_id for n in nodes], request)
        network.run()
        assert all(node.last_executed == 0 for node in nodes[1:])
        # Simulated time passes; the backups' timers fire.
        network.advance_time(60.0)
        for node in nodes:
            node.check_timeouts()
        network.run()
        live = nodes[1:]
        assert all(node.view == 1 for node in live)
        assert all(node.last_executed == 1 for node in live)
        assert len({n.application.state_digest() for n in live}) == 1

    def test_view_change_votes_from_a_minority_do_not_switch_views(self):
        network, nodes, _ = make_cluster()
        vote = ViewChange(new_view=1, replica="r3", last_executed=0, prepared={})
        nodes[1].on_message("r3", vote)
        assert nodes[1].view == 0
        assert not nodes[1]._view_changing

    def test_f_plus_1_votes_make_a_replica_join_the_view_change(self):
        network, nodes, _ = make_cluster()
        for sender in ("r2", "r3"):
            nodes[1].on_message(
                sender, ViewChange(new_view=1, replica=sender, last_executed=0, prepared={})
            )
        # r1 joins on the second (f+1-th) vote; its own vote completes the
        # 2f+1 quorum and, being the primary of view 1, it installs the view
        # immediately.
        assert nodes[1].view == 1

    def test_crashed_replica_ignores_everything(self):
        network, nodes, _ = make_cluster(faults={2: ReplicaFaultMode.CRASHED})
        request = make_request()
        network.broadcast("client", [n.replica_id for n in nodes], request)
        network.run()
        assert nodes[2].last_executed == 0
        assert all(node.last_executed == 1 for node in (nodes[0], nodes[1], nodes[3]))

    def test_statistics_snapshot(self):
        network, nodes, _ = make_cluster()
        stats = nodes[0].statistics
        assert stats["view"] == 0
        assert network.fault_of("r0") is ReplicaFaultMode.CORRECT
