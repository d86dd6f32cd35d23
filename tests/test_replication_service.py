"""Tests for the BFT ordering protocol and the replicated PEATS deployment,
reached through the one client path: ``connect(service=...).bind(p)``."""

import pytest

from repro.api import connect
from repro.api.sharded import ShardedSpace
from repro.cluster import ShardedPEATS
from repro.errors import AccessDeniedError, QuorumError, ReplicationError
from repro.policy import AccessPolicy, Rule, strong_consensus_policy, weak_consensus_policy
from repro.replication.crypto import digest
from repro.replication.messages import ClientReply
from repro.replication import ReplicaFaultMode, set_fault
from repro.tuples import ANY, Formal, entry, template


def open_policy():
    return AccessPolicy(
        [Rule(name, name) for name in ("out", "rdp", "inp", "cas")], name="open"
    )


class TestHappyPath:
    def test_basic_operations_round_trip(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True
        assert view.rdp(template("A", ANY)) == entry("A", 1)
        inserted, existing = view.cas(template("B", Formal("x")), entry("B", 2))
        assert inserted is True and existing is None
        assert view.inp(template("A", ANY)) == entry("A", 1)
        assert view.rdp(template("A", ANY)) is None

    def test_all_correct_replicas_reach_the_same_state(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        view = connect(service=service).bind("c1")
        for i in range(5):
            view.out(entry("A", i))
        digests = set(service.replica_state_digests().values())
        assert len(digests) == 1
        assert len(service.snapshot()) == 5

    def test_multiple_clients_are_serialised(self):
        service = ShardedPEATS(weak_consensus_policy(), shards=1, f=1)
        first = connect(service=service).bind("p1")
        second = connect(service=service).bind("p2")
        inserted1, _ = first.cas(template("DECISION", Formal("d")), entry("DECISION", "a"))
        inserted2, existing = second.cas(template("DECISION", Formal("d")), entry("DECISION", "b"))
        assert inserted1 is True
        assert inserted2 is False and existing == entry("DECISION", "a")

    def test_policy_is_enforced_at_the_replicas(self):
        processes = list(range(4))
        service = ShardedPEATS(strong_consensus_policy(processes, 1), shards=1, f=1)
        honest = connect(service=service).bind(0)
        byzantine = connect(service=service).bind(3)
        assert honest.out(entry("PROPOSE", 0, 1)) is True
        assert not byzantine.out(entry("PROPOSE", 0, 0))  # impersonation denied
        assert byzantine.rdp(template("PROPOSE", 0, Formal("v"))) == entry("PROPOSE", 0, 1)
        assert byzantine.inp(template("PROPOSE", 0, Formal("v"))) is None  # removal denied

    def test_blocking_reads_return_a_present_match(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        view = connect(service=service).bind("c1")
        view.out(entry("A", 1))
        assert view.rd(template("A", ANY)) == entry("A", 1)
        assert view.in_(template("A", ANY)) == entry("A", 1)

    def test_blocking_reads_time_out_when_no_match_appears(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        view = connect(service=service).bind("c1")
        before = service.network.now
        with pytest.raises(TimeoutError):
            view.rd(template("A", ANY), timeout=50.0, poll_interval=5.0)
        assert service.network.now >= before + 50.0
        with pytest.raises(TimeoutError):
            view.in_(template("B", ANY), timeout=25.0)

    def test_blocking_read_sees_tuple_produced_while_polling(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        producer = service.client("p")
        view = connect(service=service).bind("c1")
        # Schedule another client's out() to land mid-poll: the polling rd
        # must pick it up once the network delivers and executes it.
        service.network.schedule_after(
            30.0, lambda: producer.submit("out", (entry("LATE", 1),))
        )
        assert view.rd(template("LATE", ANY), timeout=500.0, poll_interval=5.0) == entry("LATE", 1)

    def test_f_zero_single_replica(self):
        service = ShardedPEATS(open_policy(), shards=1, f=0)
        assert service.n_replicas == 1
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True
        assert view.rdp(template("A", ANY)) == entry("A", 1)

    def test_invalid_f_rejected(self):
        with pytest.raises(ReplicationError):
            ShardedPEATS(open_policy(), shards=1, f=-1)


class TestByzantineReplicas:
    def test_one_lying_replica_is_outvoted(self):
        service = ShardedPEATS(
            open_policy(), shards=1, f=1, replica_faults={2: ReplicaFaultMode.LYING}
        )
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True
        assert view.rdp(template("A", ANY)) == entry("A", 1)

    def test_one_crashed_backup_does_not_affect_liveness(self):
        service = ShardedPEATS(
            open_policy(), shards=1, f=1, replica_faults={2: ReplicaFaultMode.CRASHED}
        )
        view = connect(service=service).bind("c1")
        for i in range(3):
            assert view.out(entry("A", i)) is True

    def test_crashed_primary_triggers_view_change(self):
        service = ShardedPEATS(
            open_policy(),
            shards=1,
            f=1,
            replica_faults={0: ReplicaFaultMode.CRASHED},
            view_change_timeout=10.0,
        )
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True
        views = [node.view for node in service.correct_nodes()]
        assert all(v >= 1 for v in views)
        assert view.rdp(template("A", ANY)) == entry("A", 1)

    def test_mute_replica_executes_but_stays_silent(self):
        service = ShardedPEATS(
            open_policy(), shards=1, f=1, replica_faults={1: ReplicaFaultMode.MUTE}
        )
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True

    def test_too_many_lying_replicas_yield_no_quorum(self):
        service = ShardedPEATS(
            open_policy(),
            shards=1,
            f=1,
            replica_faults={
                1: ReplicaFaultMode.LYING,
                2: ReplicaFaultMode.LYING,
                3: ReplicaFaultMode.LYING,
            },
        )
        client = service.client("c1")
        client._max_retransmissions = 2
        with pytest.raises(QuorumError):
            client.invoke("out", (entry("A", 1),))


    def test_a_claimed_digest_resolves_nothing_until_a_result_hashes_to_it(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        client = service.client("c1")
        # Submitted, never pumped: the only replies are the ones fed below.
        pending = client.submit("out", (entry("K", 1),))
        _, r1, r2, r3 = service.replica_ids
        honest, forged = ("OK", True), ("OK", entry("K", 666))

        def feed(replica, claimed, result):
            reply = ClientReply(replica, 0, pending.key, digest(claimed), result)
            client._on_message(replica, reply)

        # f + 1 claimants of the honest digest, no result that hashes to it.
        feed(r1, honest, forged)
        feed(r2, honest, forged)
        assert not pending.done
        assert client.statistics["mismatched_replies"] == 2
        # A digest no correct replica produces is one vote, however
        # consistent with its own result.
        feed(r1, forged, forged)
        assert not pending.done
        feed(r2, honest, honest)
        feed(r3, honest, honest)
        assert pending.result() == honest


class TestViewChangeSequenceHoles:
    def test_orphaned_pre_prepare_does_not_brick_the_service(self):
        """Regression: a pre-prepare that reached only one backup (never
        prepared, so absent from every view-change vote's prepared map)
        used to leave a permanent hole at its sequence number — execution
        is strictly contiguous, so no later request ever executed.  The new
        primary must plug such holes with null requests."""
        service = ShardedPEATS(open_policy(), shards=1, f=1, view_change_timeout=30.0)
        network = service.network
        network.partition("replica-0", "replica-2")
        network.partition("replica-0", "replica-3")
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True  # forces the view change
        network.heal_all()
        # The service must keep serving after the partition heals.
        assert view.out(entry("A", 2)) is True
        assert view.rdp(template("A", ANY)) == entry("A", 1)
        assert all(node.view >= 1 for node in service.correct_nodes())
        assert len(service.snapshot()) == 2

    def test_isolated_replica_elected_primary_recovers_the_real_history(self):
        """Regression: a replica partitioned away (from replicas AND the
        client) while the quorum executed requests used to null-fill those
        sequences when it later became primary, permanently diverging its
        tuple-space state — and `snapshot()` could return the diverged
        state.  View-change votes must carry certificates for *executed*
        sequences too, so the new primary re-proposes the real requests."""
        service = ShardedPEATS(open_policy(), shards=1, f=1, view_change_timeout=30.0)
        network = service.network
        for peer in ("replica-0", "replica-2", "replica-3", "c1"):
            network.partition("replica-1", peer)
        view = connect(service=service).bind("c1")
        assert view.out(entry("A", 1)) is True  # executed by replicas 0,2,3
        assert view.out(entry("A", 2)) is True
        network.heal_all()
        set_fault(service.nodes[0], ReplicaFaultMode.CRASHED)
        # The next request forces a view change electing replica-1, which
        # missed the whole history.
        assert view.out(entry("A", 3)) is True
        up_to_date = max(n.last_executed for n in service.correct_nodes())
        digests = {
            node.application.state_digest()
            for node in service.correct_nodes()
            if node.last_executed == up_to_date
        }
        assert len(digests) == 1
        assert set(service.snapshot()) == {entry("A", 1), entry("A", 2), entry("A", 3)}

    def test_blocking_read_denied_by_policy_raises_immediately(self):
        """A denial must surface as AccessDeniedError on the first probe —
        mirroring the local PEATS — not poll until a TimeoutError."""
        processes = list(range(4))
        service = ShardedPEATS(strong_consensus_policy(processes, 1), shards=1, f=1)
        honest = connect(service=service).bind(0)
        assert honest.out(entry("PROPOSE", 0, 1)) is True
        intruder = connect(service=service).bind(3)
        before = service.network.now
        with pytest.raises(AccessDeniedError):
            intruder.in_(template("PROPOSE", 0, Formal("v")))  # removal denied
        # One round trip, not a full polling window.
        assert service.network.now - before < ShardedSpace.default_blocking_timeout


class TestSharedSpaceAdapter:
    def test_adapter_routes_by_process(self):
        processes = list(range(4))
        service = ShardedPEATS(strong_consensus_policy(processes, 1), shards=1, f=1)
        shared = connect(service=service)
        assert shared.out(entry("PROPOSE", 0, 1), process=0) is True
        denied = shared.out(entry("PROPOSE", 1, 1), process=0)
        assert not denied and denied.reason  # falsy, and says why
        assert shared.rdp(template("PROPOSE", 0, Formal("v")), process=2) == entry("PROPOSE", 0, 1)
        assert len(shared.snapshot()) == 1
        bound = shared.bind(1)
        assert bound.out(entry("PROPOSE", 1, 1)) is True
        # Each process is one authenticated client identity on the service.
        assert service.client(1).statistics["requests"] == 1
        assert service.client(0).statistics["requests"] == 2
        # Re-binding a view replaces its identity, never lends it.
        assert bound.bind(3).process == 3
        assert not bound.bind(3).out(entry("PROPOSE", 2, 1))  # judged as 3

    def test_statistics_and_views(self):
        service = ShardedPEATS(open_policy(), shards=1, f=1)
        view = connect(service=service).bind("c1")
        view.out(entry("A", 1))
        stats = service.client("c1").statistics
        assert stats["requests"] >= 1
        assert service.network.statistics["delivered"] > 0
