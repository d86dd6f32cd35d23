"""Tests for request batching, checkpoints, log truncation and recovery.

Covers the PBFT throughput/garbage-collection machinery: batch assembly at
the primary, checkpoint certificates and the water-mark window, truncation
of every ordering-state structure below the stable checkpoint, batch
safety across view changes, checkpoint-based state transfer for replicas
that missed history, and the client's retransmission backoff.
"""

import pytest

from repro.cluster import ShardedPEATS
from repro.errors import ReplicationError
from repro.policy import AccessPolicy, Rule
from repro.replication.crypto import KeyStore, MessageAuthenticator
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.messages import ClientRequest, authenticate_request
from repro.replication import OrderingNode, ReplicaFaultMode, set_fault
from repro.replication.replica import PEATSReplica
from repro.replication.votes import CHECKPOINT, COMMIT, PREPARE, VIEW_CHANGE
from repro.sim import (
    CrashWindow,
    PartitionWindow,
    Scenario,
    ViewChangeStorm,
    run_scenario,
)
from repro.sim.workloads import kv_readwrite, write_burst
from repro.tuples import ANY, entry, template


def open_policy():
    return AccessPolicy(
        [Rule(name, name) for name in ("out", "rdp", "inp", "cas")], name="open"
    )


def make_cluster(n=4, f=1, faults=None, **node_kwargs):
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
                **node_kwargs,
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


def request_from(client, request_id):
    request = ClientRequest(
        client=client,
        request_id=request_id,
        operation="out",
        arguments=(entry("A", client, request_id),),
    )
    return authenticate_request(request, _AUTH, _REPLICAS)


class TestBatching:
    def test_invalid_parameters_rejected(self):
        network = SimulatedNetwork(NetworkConfig(seed=1))
        replica = PEATSReplica("r0", open_policy())
        with pytest.raises(ReplicationError):
            OrderingNode("r0", ("r0",), 0, replica, network, max_batch_size=0)
        with pytest.raises(ReplicationError):
            OrderingNode("r0", ("r0",), 0, replica, network, checkpoint_interval=0)

    def test_buffered_requests_are_drained_into_one_batch(self):
        # A tight window (one in-flight instance) forces later requests to
        # buffer; once the checkpoint slides the window they must ship as
        # one batch, not one instance each.
        network, nodes, _ = make_cluster(
            max_batch_size=8, checkpoint_interval=1, log_window=1
        )
        requests = [request_from(f"c{i}", 0) for i in range(6)]
        for req in requests:
            network.broadcast(req.client, [n.replica_id for n in nodes], req)
        for req in requests:
            network.register(req.client, lambda sender, payload: None)
        network.run()
        assert all(node.last_executed < len(requests) for node in nodes)
        assert all(node.last_executed >= 2 for node in nodes)
        assert len({n.application.state_digest() for n in nodes}) == 1
        assert all(len(n.application.space.snapshot()) == 6 for n in nodes)

    def test_one_request_is_one_batch_when_nothing_is_buffered(self):
        network, nodes, replies = make_cluster()
        for i in range(3):
            req = request_from("client", i)
            network.broadcast("client", [n.replica_id for n in nodes], req)
            network.run()
        assert all(node.last_executed == 3 for node in nodes)
        assert len(replies) == 12


class TestCheckpointsAndTruncation:
    def test_checkpoint_certificate_truncates_ordering_state(self):
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        for i in range(5):
            req = request_from("client", i)
            network.broadcast("client", [n.replica_id for n in nodes], req)
            network.run()
        for node in nodes:
            assert node.last_executed == 5
            assert node.stable_checkpoint == 4
            # Everything at or below the stable checkpoint is gone.
            assert all(seq > 4 for _, seq in node._pre_prepares)
            assert all(seq > 4 for _, seq, _, _ in node.votes.ballots(PREPARE))
            assert all(seq > 4 for _, seq, _, _ in node.votes.ballots(COMMIT))
            assert all(seq > 4 for seq in node._committed)
            own = node.replica_id
            assert all(seq > 4 for _, seq, voter, _ in node.votes.ballots(PREPARE) if voter == own)
            assert all(seq > 4 for _, seq, voter, _ in node.votes.ballots(COMMIT) if voter == own)
            # Per-request bookkeeping below the checkpoint is gone too.
            assert len(node._executed_keys) == 1
            assert len(node._executed_at) == 1

    def test_each_checkpoint_state_is_digested_once(self, count_calls):
        from repro.replication import checkpointing
        from repro.replication.messages import StateRequest

        digests = count_calls(checkpointing, "digest")
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        for i in range(5):
            req = request_from("client", i)
            network.broadcast("client", [n.replica_id for n in nodes], req)
            network.run()
        taken = sum(node.statistics["checkpoints_taken"] for node in nodes)
        assert taken == 8 and all(node.stable_checkpoint == 4 for node in nodes)
        # Stabilising compares the digest stored with the state.
        assert len(digests) == taken
        # Serving a state transfer ships the stored digest too.
        responses = count_calls(nodes[0], "_send")
        nodes[0].on_message("r1", StateRequest(sequence=4, replica="r1"))
        assert len(responses) == 1
        assert len(digests) == taken

    def test_water_mark_bounds_assigned_sequences(self):
        network, nodes, _ = make_cluster(
            max_batch_size=1, checkpoint_interval=2, log_window=4
        )
        primary = nodes[0]
        requests = [request_from(f"c{i}", 0) for i in range(10)]
        for req in requests:
            network.register(req.client, lambda sender, payload: None)
            primary.on_message(req.client, req)
        # Without pumping the network no checkpoint can stabilise, so the
        # primary must stop assigning at the high water mark.
        assert primary.next_sequence == primary.high_water_mark + 1
        assert len(primary._buffered) == 10
        network.run()
        assert all(node.last_executed == 10 for node in nodes)

    def test_retransmission_after_truncation_is_not_reexecuted(self):
        network, nodes, replies = make_cluster(checkpoint_interval=1)
        first = request_from("client", 0)
        network.broadcast("client", [n.replica_id for n in nodes], first)
        network.run()
        second = request_from("client", 1)
        network.broadcast("client", [n.replica_id for n in nodes], second)
        network.run()
        # Both sequences are checkpointed and truncated; the first request's
        # key is no longer in the ordering layer's bookkeeping.
        assert all(node.stable_checkpoint == node.last_executed for node in nodes)
        assert all(first.key not in node._executed_keys for node in nodes)
        snapshots = [len(node.application.space.snapshot()) for node in nodes]
        network.broadcast("client", [n.replica_id for n in nodes], first)
        network.run()
        # The stale retransmission must not re-order or re-execute.
        assert all(node.last_executed == 2 for node in nodes)
        assert [len(node.application.space.snapshot()) for node in nodes] == snapshots

    def test_bounded_state_after_one_thousand_requests(self):
        # Regression for the unbounded-growth bug: _buffered_since,
        # _ordered_keys/_executed_keys and the message log used to retain
        # an entry for every request ever seen.
        result = run_scenario(
            Scenario(
                name="burst-1k",
                clients=kv_readwrite(25, ops_per_client=40, seed=5),
                checkpoint_interval=8,
            )
        )
        assert result.completed
        assert result.metrics.operations_completed == 1000
        for node in result.service.nodes:
            window = node.log_window
            assert node.stable_checkpoint > 0
            assert len(node._pre_prepares) <= window
            assert len(node._committed) <= window
            assert len(node._buffered_since) == 0
            assert len(node._buffered) == 0
            # Request bookkeeping is bounded by what fits in the window,
            # not by the 1000 requests that went through.
            assert len(node._executed_keys) <= window * node.max_batch_size
            assert len(node._executed_at) <= window * node.max_batch_size
            assert len(node._ordered_keys) <= window * node.max_batch_size


class TestBatchSafetyUnderViewChanges:
    def test_batched_requests_survive_primary_crash(self):
        network, nodes, replies = make_cluster(
            faults={0: ReplicaFaultMode.CRASHED}, max_batch_size=4
        )
        requests = [request_from(f"c{i}", 0) for i in range(5)]
        for req in requests:
            network.register(req.client, lambda sender, payload: None)
            network.broadcast(req.client, [n.replica_id for n in nodes], req)
        network.run()
        live = nodes[1:]
        assert all(node.last_executed == 0 for node in live)
        network.advance_time(60.0)
        for node in nodes:
            node.check_timeouts()
        network.run()
        assert all(node.view >= 1 for node in live)
        assert all(node.last_executed >= 1 for node in live)
        assert all(len(node.application.space.snapshot()) == 5 for node in live)
        assert len({node.application.state_digest() for node in live}) == 1

    def test_view_change_storm_does_not_lose_or_duplicate_batches(self):
        result = run_scenario(
            Scenario(
                name="storm-batched",
                clients=write_burst(12, ops_per_client=6),
                faults=(ViewChangeStorm(start=8.0, rounds=3, gap=25.0),),
                checkpoint_interval=4,
                view_change_timeout=30.0,
            )
        )
        assert result.completed
        assert result.metrics.operations_completed == 72
        correct = result.service.correct_nodes()
        assert len({node.application.state_digest() for node in correct}) == 1
        # Exactly 72 tuples: nothing lost, nothing executed twice.
        assert len(result.service.snapshot()) == 72
        # Agreement must come from the protocol itself (replicas stop
        # progressing the old view once they vote), not from the
        # divergence-resync safety net.
        assert all(node.statistics["state_transfers"] == 0 for node in correct)

    def test_truncation_happens_even_under_partition_schedule(self):
        result = run_scenario(
            Scenario(
                name="partition-truncate",
                clients=write_burst(12, ops_per_client=8),
                faults=(PartitionWindow(5.0, 25.0, left=[3], right=[0, 1, 2]),),
                checkpoint_interval=4,
            )
        )
        assert result.completed
        stable = result.service.stable_checkpoints()
        assert all(value > 0 for value in stable.values())
        for node in result.service.nodes:
            assert all(seq > node.stable_checkpoint for _, seq in node._pre_prepares)


class TestCheckpointRecovery:
    def test_crashed_replica_rejoins_via_state_transfer(self):
        # A replica crashed mid-run misses history that the rest of the
        # group garbage-collects at checkpoints; on rejoin it must fetch
        # the latest stable checkpoint instead of replaying from sequence 1
        # (the full incremental catch-up protocol remains follow-up work —
        # this transfers the whole checkpointed state).
        result = run_scenario(
            Scenario(
                name="crash-recover",
                clients=write_burst(8, ops_per_client=12),
                faults=(CrashWindow(replica=2, start=5.0, end=45.0),),
                checkpoint_interval=4,
            )
        )
        assert result.completed
        recovered = result.service.nodes[2]
        others = [node for index, node in enumerate(result.service.nodes) if index != 2]
        assert recovered.statistics["state_transfers"] >= 1
        assert all(node.statistics["state_transfers"] == 0 for node in others)
        # The recovered replica caught up to the group, with converged
        # application state and no stale buffered requests left behind.
        assert recovered.last_executed == others[0].last_executed
        assert recovered.stable_checkpoint == others[0].stable_checkpoint
        assert len(set(result.service.replica_state_digests().values())) == 1
        assert recovered.statistics["buffered"] == 0

    def test_state_transfer_ships_in_window_committed_tail(self):
        # The group executed past its stable checkpoint; a replica that
        # missed everything must catch up to the *tip* via the transferred
        # in-window certificates, not stall at the checkpoint boundary
        # waiting for the next certificate.
        network, nodes, _ = make_cluster(
            checkpoint_interval=8, max_batch_size=1, faults={3: ReplicaFaultMode.CRASHED}
        )
        for i in range(10):
            req = request_from("client", i)
            network.broadcast("client", [n.replica_id for n in nodes], req)
            network.run()
        live = nodes[:3]
        assert all(node.last_executed == 10 for node in live)
        assert all(node.stable_checkpoint == 8 for node in live)
        # Recover the crashed replica and hand it the checkpoint
        # certificate it slept through; it fetches state at 8 and must
        # adopt the committed batches 9 and 10 shipped alongside.
        lagging = nodes[3]
        set_fault(lagging, ReplicaFaultMode.CORRECT)
        for node in live:
            network.send(node.replica_id, lagging.replica_id, node._own_checkpoint)
        network.run()
        assert lagging.statistics["state_transfers"] == 1
        assert lagging.stable_checkpoint == 8
        assert lagging.last_executed == 10
        assert len({node.application.state_digest() for node in nodes}) == 1

    def test_state_response_with_wrong_proof_is_rejected(self):
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        for i in range(3):
            req = request_from("client", i)
            network.broadcast("client", [n.replica_id for n in nodes], req)
            network.run()
        node = nodes[1]
        from repro.replication.messages import StateResponse
        from repro.replication.crypto import digest

        bogus_state = ((), ())
        forged = StateResponse(
            sequence=50,
            state_digest=digest(bogus_state),
            state=bogus_state,
            proof=(),  # no certificate
            replica="r2",
        )
        before = node.last_executed
        node.on_message("r2", forged)
        assert node.last_executed == before
        assert node.statistics["state_transfers"] == 0

    def test_single_byzantine_responder_cannot_install_state(self):
        # Checkpoint proofs are only structurally validated (their inner
        # votes are not origin-authenticated), so one liar can fabricate a
        # plausible certificate — installation therefore requires f + 1
        # distinct responders shipping byte-identical state.
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        node = nodes[1]
        from repro.replication.messages import Checkpoint, StateResponse
        from repro.replication.crypto import digest

        bogus_state = ((), (), (0, (), (), ()))
        bogus_digest = digest(bogus_state)
        forged_proof = tuple(
            Checkpoint(sequence=50, state_digest=bogus_digest, replica=replica)
            for replica in ("r0", "r2", "r3")
        )
        forged = StateResponse(
            sequence=50,
            state_digest=bogus_digest,
            state=bogus_state,
            proof=forged_proof,
            replica="r2",
        )
        node.on_message("r2", forged)
        assert node.last_executed == 0
        assert node.statistics["state_transfers"] == 0
        # A second, distinct responder shipping the same state reaches the
        # f + 1 threshold (one of the two must be correct).
        matching = StateResponse(
            sequence=50,
            state_digest=bogus_digest,
            state=bogus_state,
            proof=forged_proof,
            replica="r3",
        )
        node.on_message("r3", matching)
        assert node.statistics["state_transfers"] == 1
        assert node.last_executed == 50


class TestProtocolMessageAuthorization:
    def test_non_replica_sender_cannot_stuff_checkpoint_quorum(self):
        # A Byzantine *client* can register any number of network
        # identities; none of them may count toward checkpoint (or any
        # other) quorums, or one client could truncate the replicas' logs.
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        from repro.replication.messages import Checkpoint

        node = nodes[1]
        for fake in ("evil-a", "evil-b", "evil-c"):
            node.on_message(
                fake, Checkpoint(sequence=10, state_digest="bogus", replica=fake)
            )
        assert node.stable_checkpoint == 0
        assert len(list(node.votes.ballots(CHECKPOINT))) == 0

    def test_non_replica_sender_cannot_fetch_state(self):
        # StateRequest answers ship the full tuple space; honouring one
        # from a client identity would bypass the access policy entirely.
        network, nodes, _ = make_cluster(checkpoint_interval=1)
        req = request_from("client", 0)
        network.broadcast("client", [n.replica_id for n in nodes], req)
        network.run()
        assert nodes[0].stable_checkpoint == 1
        from repro.replication.messages import StateRequest

        responses = []
        network.register("snoop", lambda sender, payload: responses.append(payload))
        nodes[0].on_message("snoop", StateRequest(sequence=1, replica="snoop"))
        network.run()
        assert responses == []

    def test_spoofed_client_identity_is_rejected(self):
        # The channel authenticates the sender, so a request claiming to be
        # from another client must be dropped — otherwise one forged
        # request with a huge request_id would poison the victim's
        # reply-cache high-water mark and freeze it out permanently.
        network, nodes, _ = make_cluster()
        network.register("attacker", lambda sender, payload: None)
        network.register("victim", lambda sender, payload: None)
        forged = request_from("victim", 10**9)
        network.broadcast("attacker", [n.replica_id for n in nodes], forged)
        network.run()
        assert all(node.last_executed == 0 for node in nodes)
        # The victim's genuine traffic still goes through.
        genuine = request_from("victim", 0)
        network.broadcast("victim", [n.replica_id for n in nodes], genuine)
        network.run()
        assert all(node.last_executed == 1 for node in nodes)

    def test_byzantine_primary_cannot_forge_a_request_into_a_batch(self):
        # The request relayed in a PRE-PREPARE batch carries the client's
        # MAC vector; a faulty primary inventing a request under another
        # client's name (or under a ghost name with no keys) cannot produce
        # those MACs, so backups reject the batch and nothing executes.
        network, nodes, _ = make_cluster()
        from repro.replication.crypto import digest
        from repro.replication.messages import Batch, ClientRequest, PrePrepare

        forged = ClientRequest(
            client="ghost", request_id=0, operation="out", arguments=(entry("G", 1),)
        )
        batch = Batch(requests=(forged,))
        message = PrePrepare(
            view=0, sequence=1, batch_digest=digest(batch), batch=batch, primary="r0"
        )
        for node in nodes[1:]:
            network.send("r0", node.replica_id, message)
        network.run()
        # No backup prepared the forged batch, so it can never commit —
        # and the replicas shrug it off without crashing.
        assert all(node.last_executed == 0 for node in nodes[1:])
        assert all(len(node.application.space.snapshot()) == 0 for node in nodes[1:])

    def test_forged_mac_vector_under_real_client_name_is_rejected(self):
        # Even with a registered victim client, a faulty primary cannot
        # splice a fabricated request into a batch: the MAC vector is
        # computed under keys only the client holds.  Stuffing the vector
        # with garbage (or with MACs lifted from a *different* request)
        # fails verification at every backup.
        network, nodes, _ = make_cluster()
        network.register("victim", lambda sender, payload: None)
        from repro.replication.crypto import digest
        from repro.replication.messages import Batch, ClientRequest, PrePrepare
        import dataclasses

        genuine = request_from("victim", 0)
        # Lift the genuine MACs onto a different operation: binding the
        # operation/arguments into the MAC payload must catch the splice.
        spliced = dataclasses.replace(
            ClientRequest(
                client="victim",
                request_id=0,
                operation="inp",
                arguments=(template("A", ANY, ANY),),
            ),
            auth=genuine.auth,
        )
        batch = Batch(requests=(spliced,))
        message = PrePrepare(
            view=0, sequence=1, batch_digest=digest(batch), batch=batch, primary="r0"
        )
        for node in nodes[1:]:
            network.send("r0", node.replica_id, message)
        network.run()
        assert all(node.last_executed == 0 for node in nodes[1:])
        # The genuine request itself still goes through afterwards.
        network.broadcast("victim", [n.replica_id for n in nodes], genuine)
        network.run()
        assert all(node.last_executed == 1 for node in nodes)

    def test_oversized_checkpoint_proof_is_rejected(self):
        network, nodes, _ = make_cluster()
        from repro.replication.messages import Checkpoint

        node = nodes[1]
        vote = Checkpoint(sequence=4, state_digest="d", replica="r0")
        padded = (vote,) * 1000 + tuple(
            Checkpoint(sequence=4, state_digest="d", replica=r) for r in ("r1", "r2")
        )
        assert not node._valid_checkpoint_proof(padded, 4, "d")
        honest = tuple(
            Checkpoint(sequence=4, state_digest="d", replica=r) for r in ("r0", "r1", "r2")
        )
        assert node._valid_checkpoint_proof(honest, 4, "d")

    def test_prepare_and_commit_spray_beyond_window_is_bounded(self):
        # One faulty replica spraying prepares/commits for far-future
        # sequences must not grow the vote maps.
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        from repro.replication.messages import Commit, Prepare

        node = nodes[1]
        for k in range(500):
            sequence = 10**6 + k
            node.on_message(
                "r2", Prepare(view=0, sequence=sequence, batch_digest=f"junk{k}", replica="r2")
            )
            node.on_message(
                "r2", Commit(view=0, sequence=sequence, batch_digest=f"junk{k}", replica="r2")
            )
        assert len(list(node.votes.ballots(PREPARE))) == 0
        assert len(list(node.votes.ballots(COMMIT))) == 0

    @pytest.mark.parametrize(
        "kind, sprayed", [(PREPARE, 20_000), (COMMIT, 20_000), (VIEW_CHANGE, 10_000)]
    )
    def test_one_sender_spraying_votes_holds_a_bounded_share(self, kind, sprayed):
        # One faulty replica votes for 20 000 distinct digests at one
        # in-window slot, or for 10^4 distinct future views.  It keeps one
        # ballot in the slot (its first digest stands) or 16 view slots,
        # and the correct replicas' quorum still decides without it.
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        from repro.replication.messages import Commit, Prepare, ViewChange

        node = nodes[1]
        spray = {
            PREPARE: lambda k: Prepare(0, 1, f"junk{k}", "r2"),
            COMMIT: lambda k: Commit(0, 1, f"junk{k}", "r2"),
            VIEW_CHANGE: lambda k: ViewChange(2 + k, "r2", 0, {}),
        }[kind]
        for k in range(sprayed):
            node.on_message("r2", spray(k))
        held = [(view, seq) for view, seq, voter, _ in node.votes.ballots(kind) if voter == "r2"]
        if kind == VIEW_CHANGE:
            assert len(held) == 16
            for each in nodes:
                each.force_view_change()
            network.run()
            # r2's own vote for view 1 sits below its sprayed views.
            assert all(each.view == 1 for each in nodes)
            return
        assert held == [(0, 1)]
        assert node.votes.voters(kind, 0, 1) == {"r2": None}
        req = request_from("client", 0)
        network.broadcast("client", [n.replica_id for n in nodes], req)
        network.run()
        assert all(each.last_executed == 1 for each in nodes)
        # r2's honest vote was its second digest in the slot: not counted.
        batch_digest = node._pre_prepares[(0, 1)].batch_digest
        counted = node.votes.voters(kind, 0, 1, batch_digest)
        assert "r2" not in counted and len(counted) == {PREPARE: 2, COMMIT: 3}[kind]

    def test_checkpoint_vote_bookkeeping_is_bounded_per_replica(self):
        # A faulty replica spraying artificial checkpoint sequences must
        # overwrite its own vote slot, not grow the map without bound.
        network, nodes, _ = make_cluster(checkpoint_interval=2)
        from repro.replication.messages import Checkpoint

        node = nodes[1]
        for sequence in range(10, 200):
            node.on_message(
                "r2", Checkpoint(sequence=sequence, state_digest=f"d{sequence}", replica="r2")
            )
        assert len(list(node.votes.ballots(CHECKPOINT))) == 1
        assert node.stable_checkpoint == 0


class TestRetransmissionBackoff:
    def test_backoff_is_exponential_and_capped(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        client = service.client("c1")
        delays = [client._retransmit_delay(attempts) for attempts in range(6)]
        assert delays[0] == pytest.approx(100.0)
        assert delays[1] == pytest.approx(200.0)
        assert delays[2] == pytest.approx(400.0)
        assert delays[4] == pytest.approx(1600.0)
        assert delays[5] == pytest.approx(1600.0)  # capped

    def test_unreachable_service_sees_few_retransmissions(self):
        # With the old fixed 100 ms interval a dead service would see ~31
        # retransmissions by t=3200; exponential backoff sends a handful.
        service = ShardedPEATS(
            open_policy(),
            shards=1,
            f=1,
            replica_faults={index: ReplicaFaultMode.CRASHED for index in range(4)},
        )
        client = service.client("c1")
        client.submit("out", (entry("A", 1),))
        service.network.run_until_time(3200.0)
        assert 1 <= client.statistics["retransmissions"] <= 6

    def test_bounded_retransmissions_during_view_change_storm(self):
        result = run_scenario(
            Scenario(
                name="storm-backoff",
                clients=write_burst(10, ops_per_client=4),
                faults=(ViewChangeStorm(start=5.0, rounds=4, gap=20.0),),
                view_change_timeout=30.0,
            )
        )
        assert result.completed
        total_requests = sum(
            runner.client.statistics["requests"] for runner in result.engine.runners
        )
        total_retransmissions = sum(
            runner.client.statistics["retransmissions"] for runner in result.engine.runners
        )
        assert total_requests == 40
        # The storm stalls progress for a few hundred virtual ms; backoff
        # keeps the retransmission amplification well below one per stalled
        # interval per client.
        assert total_retransmissions <= total_requests
