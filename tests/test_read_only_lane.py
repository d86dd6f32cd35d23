"""The read-only lane: an ``rdp`` answered without the ordering round.

A client sends every ``rdp`` flagged ``read_only``; each replica answers
it from its executed state once execution has reached its commit
frontier, and the client accepts ``2f + 1`` matching replies, falling
back to an ordered ``rdp`` when that vote cannot form.  The first half
of this file drives the lane from hostile clients and faulty replicas on
all three transports; the second half pins the commit-frontier hold in
the style of ``test_replication_pbft_unit.py``, including the schedule
that returns a stale read without it.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.api import connect
from repro.cluster import ShardedPEATS
from repro.net import AsyncioLoopbackTransport, TcpTransport
from repro.obs import HealthMonitor, Observability
from repro.policy import AccessPolicy, Rule
from repro.replication.crypto import KeyStore, MessageAuthenticator, canonical_bytes, digest
from repro.replication.messages import (
    Batch,
    ClientReply,
    ClientRequest,
    Commit,
    PrePrepare,
    Prepare,
    authenticate_request,
)
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication import OrderingNode, ReplicaFaultMode, set_fault
from repro.replication.replica import PEATSReplica
from repro.replication.votes import COMMIT
from repro.txn.legs import normalize_legs
from repro.tuples import ANY, entry, template

#: Wall-clock guard for every wait on a real transport (milliseconds).
WAIT_MS = 20_000.0

TRANSPORTS = {
    "sim": SimulatedNetwork,
    "loopback": AsyncioLoopbackTransport,
    "tcp": TcpTransport,
}

OPERATIONS = ("out", "rdp", "inp", "cas", "txn_exec")


def open_policy() -> AccessPolicy:
    return AccessPolicy([Rule(op, op) for op in OPERATIONS], name="lane-open")


@pytest.fixture(params=list(TRANSPORTS))
def network(request):
    net = TRANSPORTS[request.param]()
    try:
        yield net
    finally:
        net.close()


def quiesce(net) -> None:
    """Let every message in flight land (the sim drains its queue)."""
    if net.virtual_time:
        net.run()
        return
    previous = None
    while previous != net.statistics["delivered"]:
        previous = net.statistics["delivered"]
        net.run_for(50.0)


def on_replicas(net, read):
    """``read()`` run where the replicas run: the one-shard group shares
    one reactor, so nothing executes beside it."""
    box: dict = {}
    done = threading.Event()

    def run() -> None:
        try:
            box["value"] = read()
        finally:
            done.set()

    net.post("replica-0", run)
    assert done.wait(WAIT_MS / 1000.0)
    return box["value"]


def lane_request(net, client, request_id, operation, arguments, replica_ids):
    """A client-authenticated request flagged for the read-only lane."""
    request = ClientRequest(client, request_id, operation, arguments, read_only=True)
    return authenticate_request(request, net.authenticator, replica_ids)


# ----------------------------------------------------------------------
# Hostile clients and faulty replicas, on every transport
# ----------------------------------------------------------------------


def test_a_mutating_operation_flagged_read_only_gets_no_reply_and_changes_nothing(network):
    service = ShardedPEATS(open_policy(), shards=1, f=1, network=network)
    alice = service.client("alice")
    assert alice.invoke("out", (entry("K", 1),)) == ("OK", True)
    quiesce(network)
    before = on_replicas(network, service.replica_state_digests)
    executed = on_replicas(network, lambda: [node.last_executed for node in service.nodes])
    replies = []
    network.register("mallory", lambda sender, payload: replies.append(payload))
    legs = normalize_legs((("in", template("K", ANY)), ("out", entry("T", 1))))
    hostile = {
        "out": (entry("EVIL", 1),),
        "inp": (template("K", ANY),),
        "cas": (template("C", ANY), entry("C", 1)),
        "txn_exec": (legs,),
    }
    for request_id, (operation, arguments) in enumerate(hostile.items()):
        request = lane_request(
            network, "mallory", request_id, operation, arguments, service.replica_ids
        )
        network.broadcast("mallory", service.replica_ids, request)
    quiesce(network)
    assert replies == []
    assert on_replicas(network, service.replica_state_digests) == before
    assert on_replicas(network, lambda: [n.last_executed for n in service.nodes]) == executed
    assert network.statistics["handler_errors"] == 0


def test_a_hundred_lane_reads_leave_capture_state_byte_identical(network):
    service = ShardedPEATS(open_policy(), shards=1, f=1, network=network)
    alice, bob = service.client("alice"), service.client("bob")
    for key in range(2):
        assert alice.invoke("out", (entry("K", key),)) == ("OK", True)
    quiesce(network)

    def states():
        return [canonical_bytes(node.application.capture_state()) for node in service.nodes]

    before = on_replicas(network, states)
    for index in range(100):
        key = index % 3  # two hits, one miss
        expected = entry("K", key) if key < 2 else None
        assert bob.invoke("rdp", (template("K", key),)) == ("OK", expected)
    quiesce(network)
    assert bob.statistics["read_only"] == 100
    assert bob.statistics["read_only_fallbacks"] == 0
    assert on_replicas(network, states) == before


def test_a_lane_request_with_a_huge_id_does_not_make_the_next_ordered_one_stale(network):
    service = ShardedPEATS(open_policy(), shards=1, f=1, network=network)
    alice = service.client("alice")
    assert alice.invoke("out", (entry("K", 1),)) == ("OK", True)
    huge = lane_request(
        network, "alice", 10**9, "rdp", (template("K", ANY),), service.replica_ids
    )
    network.broadcast("alice", service.replica_ids, huge)
    quiesce(network)
    latest = on_replicas(
        network, lambda: {n.application.last_request_id("alice") for n in service.nodes}
    )
    assert latest == {0}
    # The client's next ordered request (id 1) is executed, not dropped
    # as older than the lane request.
    assert alice.invoke("out", (entry("K", 2),)) == ("OK", True)
    assert alice.invoke("inp", (template("K", 2),)) == ("OK", entry("K", 2))


def test_one_lying_replica_leaves_reads_on_the_lane(network):
    service = ShardedPEATS(
        open_policy(),
        shards=1,
        f=1,
        network=network,
        replica_faults={1: ReplicaFaultMode.LYING},
    )
    alice = service.client("alice")
    assert alice.invoke("out", (entry("K", 1),)) == ("OK", True)
    for _ in range(5):
        assert alice.invoke("rdp", (template("K", ANY),)) == ("OK", entry("K", 1))
    assert alice.statistics["read_only"] == 5
    assert alice.statistics["read_only_fallbacks"] == 0


def test_one_crashed_replica_leaves_three_survivors_that_all_match():
    obs = Observability()
    service = ShardedPEATS(
        open_policy(), shards=1, f=1, obs=obs, replica_faults={3: ReplicaFaultMode.CRASHED}
    )
    alice = service.client("alice")
    assert alice.invoke("out", (entry("K", 1),)) == ("OK", True)
    pending = alice.submit("rdp", (template("K", ANY),))
    assert pending.tally.threshold == 3
    assert service.network.settle(pending)
    assert pending.result() == ("OK", entry("K", 1))
    assert alice.statistics["read_only_fallbacks"] == 0
    # Three matching votes from the three replicas that answered at all.
    answered = [
        node
        for node in obs.events.nodes()
        if any(
            event["kind"] == "reply" and event.get("key") == pending.key
            for event in obs.events.events(node)
        )
    ]
    assert answered == ["replica-0", "replica-1", "replica-2"]


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_one_crashed_replica_on_a_real_transport_keeps_reads_on_the_lane(kind):
    net = TRANSPORTS[kind]()
    try:
        service = ShardedPEATS(
            open_policy(),
            shards=1,
            f=1,
            network=net,
            replica_faults={3: ReplicaFaultMode.CRASHED},
        )
        alice = service.client("alice")
        assert alice.invoke("out", (entry("K", 1),)) == ("OK", True)
        for _ in range(5):
            assert alice.invoke("rdp", (template("K", ANY),)) == ("OK", entry("K", 1))
        assert alice.statistics["read_only"] == 5
        assert alice.statistics["read_only_fallbacks"] == 0
    finally:
        net.close()


# ----------------------------------------------------------------------
# Fallbacks are not divergence
# ----------------------------------------------------------------------


def test_a_read_racing_a_write_falls_back_and_health_stays_clean():
    obs = Observability()
    service = ShardedPEATS(open_policy(), shards=1, f=1, obs=obs)
    net = service.network
    writer, reader = service.client("writer"), service.client("reader")
    monitor = HealthMonitor(fire_after=1)
    assert monitor.check(service) == []
    disagreements = []
    fall_back = reader._fall_back

    def spy(pending):
        disagreements.append(pending.tally.ballots() == len(pending.targets))
        fall_back(pending)

    reader._fall_back = spy
    for index in range(30):
        # Reads issued while the write is on its way: some replicas answer
        # before executing it and some after, so the lane splits.
        write = writer.submit("out", (entry("K", index),))
        reads = []
        net.schedule_after(
            0.25 * index,
            lambda index=index: reads.append(reader.submit("rdp", (template("K", index),))),
        )
        net.settle(write)
        net.run_until(lambda: bool(reads))
        net.settle(reads[0])
        assert reads[0].result() in (("OK", None), ("OK", entry("K", index)))
    totals = service.client_statistics()
    assert totals["read_only_fallbacks"] >= 1
    assert any(disagreements), "no fallback came from replies that disagree"
    assert totals["mismatched_replies"] == totals["quorum_failures"] == 0
    assert [report.probe for report in monitor.check(service)] == []
    clients = connect(service=service).stats()["clients"]
    assert clients["read_only"] == 30
    assert clients["read_only_fallbacks"] == totals["read_only_fallbacks"]


def test_a_forged_lane_reply_still_counts_as_a_mismatch():
    service = ShardedPEATS(open_policy(), shards=1, f=1)
    alice = service.client("alice")
    assert alice.invoke("out", (entry("K", 1),)) == ("OK", True)
    pending = alice.submit("rdp", (template("K", ANY),))
    honest = ("OK", entry("K", 1))
    alice._on_message(
        "replica-0",
        ClientReply("replica-0", 0, pending.key, digest(honest), ("OK", entry("K", 666))),
    )
    assert service.network.settle(pending)
    assert pending.result() == honest
    assert alice.statistics["mismatched_replies"] == 1


# ----------------------------------------------------------------------
# The commit-frontier hold (ordering-node unit tests)
# ----------------------------------------------------------------------

_AUTH = MessageAuthenticator(KeyStore())
_REPLICAS = tuple(f"r{i}" for i in range(4))


def make_cluster():
    network = SimulatedNetwork(NetworkConfig(seed=3))
    nodes = [
        OrderingNode(
            replica_id,
            _REPLICAS,
            1,
            PEATSReplica(replica_id, open_policy()),
            network,
            view_change_timeout=10.0,
        )
        for replica_id in _REPLICAS
    ]
    replies = []
    network.register("client", lambda sender, payload: replies.append((sender, payload)))
    return network, nodes, replies


def make_request(request_id, operation="out", arguments=None, read_only=False):
    request = ClientRequest(
        client="client",
        request_id=request_id,
        operation=operation,
        arguments=arguments if arguments is not None else (entry("W", 1),),
        read_only=read_only,
    )
    return authenticate_request(request, _AUTH, _REPLICAS)


def read(request_id):
    return make_request(request_id, "rdp", (template("W", ANY),), read_only=True)


def commit_without_executing(backup, batch):
    """``backup`` logs the pre-prepare of sequence 1, prepares and sends
    its COMMIT; the commits that would let it execute are withheld."""
    backup.on_message("r0", PrePrepare(0, 1, digest(batch), batch, "r0"))
    prepare = Prepare(view=0, sequence=1, batch_digest=digest(batch), replica="r2")
    backup.on_message("r2", prepare)
    assert backup.commit_frontier == 1 and backup.last_executed == 0


def lane_replies(replies, sender, request):
    return [
        payload.result
        for who, payload in replies
        if who == sender and payload.request_key == request.key
    ]


class TestCommitFrontierHold:
    def test_a_read_waits_for_the_sequence_it_sent_a_commit_for(self):
        network, nodes, replies = make_cluster()
        backup = nodes[1]
        batch = Batch((make_request(0),))
        commit_without_executing(backup, batch)
        backup.on_message("client", read(1))
        network.run()
        assert lane_replies(replies, "r1", read(1)) == []
        for sender in ("r2", "r3"):
            backup.on_message(sender, Commit(0, 1, digest(batch), sender))
        assert backup.last_executed == 1
        network.run()
        assert lane_replies(replies, "r1", read(1)) == [("OK", entry("W", 1))]

    def test_the_hold_outlives_a_view_change(self):
        network, nodes, replies = make_cluster()
        backup = nodes[1]
        batch = Batch((make_request(0),))
        commit_without_executing(backup, batch)
        backup.on_message("client", read(1))
        # The primary falls silent; the backups' timers fire.
        set_fault(nodes[0], ReplicaFaultMode.CRASHED)
        for node in nodes[1:]:
            node._start_view_change(1)
        network.run_until(lambda: backup.view == 1)
        # The new view forgot the COMMIT (backup re-proposes sequence 1 as
        # view 1's primary); the frontier did not, so the read still waits.
        sent_commits = [
            (view, seq)
            for view, seq, voter, _ in backup.votes.ballots(COMMIT)
            if voter == backup.replica_id and view == backup.view
        ]
        assert sent_commits == [] and backup.last_executed == 0
        assert backup.commit_frontier == 1 and read(1).key in backup._held_reads
        network.run()
        assert all(node.view == 1 and node.last_executed == 1 for node in nodes[1:])
        assert lane_replies(replies, "r1", read(1)) == [("OK", entry("W", 1))]

    def test_the_hold_is_bounded_and_an_evicted_read_is_never_answered(self):
        network, nodes, replies = make_cluster()
        backup = nodes[1]
        batch = Batch((make_request(0),))
        commit_without_executing(backup, batch)
        held = [read(request_id) for request_id in range(1, OrderingNode.MAX_HELD_READS + 2)]
        for request in held:
            backup.on_message("client", request)
        assert len(backup._held_reads) == OrderingNode.MAX_HELD_READS
        for sender in ("r2", "r3"):
            backup.on_message(sender, Commit(0, 1, digest(batch), sender))
        network.run()
        assert lane_replies(replies, "r1", held[0]) == []
        assert all(lane_replies(replies, "r1", request) for request in held[1:])
        assert backup._held_reads == {}

    def test_an_evicted_read_falls_back_to_the_ordered_path(self):
        service, lagging = lagging_behind_a_write()
        alice = service.client("alice")
        pending = alice.submit("rdp", (template("W", ANY),))
        net = service.network
        net.run_until(lambda: all(pending.key in node._held_reads for node in lagging))
        mallory = [
            lane_request(net, "mallory", index, "rdp", (template("W", ANY),), service.replica_ids)
            for index in range(OrderingNode.MAX_HELD_READS)
        ]
        net.register("mallory", lambda sender, payload: None)
        for node in lagging:
            for request in mallory:
                node.on_message("mallory", request)
            assert pending.key not in node._held_reads
        assert net.settle(pending)
        assert pending.result() == ("OK", entry("W", 1))
        assert alice.statistics["read_only_fallbacks"] == 1


def lagging_behind_a_write(stale_liar: bool = False):
    """A one-shard sim deployment where ``bob``'s write W = out(W, 1) has
    completed, but replica-1 and replica-2 only sent their COMMIT for it:
    the commits of replica-0 and replica-3 are rewritten in flight, so
    each lagging replica holds two (its own and the other's), one short.

    With ``stale_liar`` replica-3 is Byzantine: it orders and executes
    like the others but answers lane reads from its pre-W state.
    """
    service = ShardedPEATS(open_policy(), shards=1, f=1)
    net = service.network
    nodes = service.nodes
    if stale_liar:
        liar = nodes[3]
        frozen = PEATSReplica(liar.replica_id, open_policy())
        frozen.install_state(liar.application.capture_state())
        liar._answer_read = lambda request: liar._reply(
            request, frozen.execute_read_only(request)
        )

    def drop_commits(payload):
        if isinstance(payload, Commit):
            return dataclasses.replace(payload, batch_digest="rewritten")
        return payload

    for node in (nodes[0], nodes[3]):
        net.set_tampering(node.replica_id, drop_commits)
    bob = service.client("bob")
    assert bob.invoke("out", (entry("W", 1),)) == ("OK", True)
    lagging = (nodes[1], nodes[2])
    assert [node.last_executed for node in nodes] == [1, 0, 0, 1]
    assert all(node.commit_frontier == 1 for node in lagging)
    return service, lagging


@pytest.mark.parametrize("hold", [True, False], ids=["real-code", "hold-removed"])
def test_two_laggards_and_a_stale_liar_form_a_stale_quorum_only_without_the_hold(hold):
    """W completed with replica-0 and the liar's replies.  A read that
    begins after it has 2f + 1 = 3 pre-W answers available — the liar's
    and the two laggards' — unless the laggards hold their reads."""
    service, lagging = lagging_behind_a_write(stale_liar=True)
    if not hold:
        for node in lagging:
            node._answer_read = lambda request, node=node: node._reply(
                request, node.application.execute_read_only(request)
            )
    alice = service.client("alice")
    result = alice.invoke("rdp", (template("W", ANY),))
    if hold:
        assert result == ("OK", entry("W", 1))
        assert alice.statistics["read_only_fallbacks"] == 1
    else:
        assert result == ("OK", None)  # the stale read the hold prevents
        assert alice.statistics["read_only_fallbacks"] == 0
    assert alice.statistics["mismatched_replies"] == 0


def test_every_rdp_and_nothing_else_takes_the_lane():
    """No option selects the lane; an rdp reserves the id after its own
    for the ordered fallback."""
    client = ShardedPEATS(open_policy(), shards=1, f=1).client("alice")
    sent = [
        client.submit(operation, arguments).request
        for operation, arguments in (
            ("rdp", (template("K", ANY),)),
            ("out", (entry("K", 1),)),
            ("inp", (template("K", ANY),)),
        )
    ]
    assert [(r.operation, r.request_id, r.read_only) for r in sent] == [
        ("rdp", 0, True),
        ("out", 2, False),
        ("inp", 3, False),
    ]
