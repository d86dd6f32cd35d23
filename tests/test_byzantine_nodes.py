"""Byzantine replicas as node behaviour: the fault table and its presets.

The ordering core is written for correct nodes only; a faulty replica is
its row of the delivery core's fault table (``repro.replication.adversary``).
These tests pin the three levers — a node's rewrite (its lies verify, a
link's do not), the crash sink and the held posts — and then use the
rewrite to play Byzantine replicas against the protocol.
"""

import dataclasses
import time

import pytest

from repro.api import connect
from repro.net import AsyncioLoopbackTransport, TcpTransport
from repro.policy import AccessPolicy, Rule
from repro.replication import OrderingNode, ReplicaFaultMode, set_fault
from repro.replication.crypto import KeyStore, MessageAuthenticator, digest
from repro.replication.messages import (
    Batch,
    Checkpoint,
    ClientRequest,
    PrePrepare,
    ViewChange,
    authenticate_request,
)
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.replica import PEATSReplica
from repro.tuples import entry, template

REPLICAS = tuple(f"r{i}" for i in range(4))
AUTH = MessageAuthenticator(KeyStore())
TRANSPORTS = {
    "sim": SimulatedNetwork,
    "loopback": AsyncioLoopbackTransport,
    "tcp": TcpTransport,
}
WAIT_MS = 10_000.0


def open_policy():
    return AccessPolicy([Rule(name, name) for name in ("out", "rdp", "inp")], name="open")


def make_cluster():
    network = SimulatedNetwork(NetworkConfig(seed=3))
    nodes = [
        OrderingNode(
            rid, REPLICAS, 1, PEATSReplica(rid, open_policy()), network, view_change_timeout=10.0
        )
        for rid in REPLICAS
    ]
    replies = []
    for client in ("client", "other"):
        network.register(client, lambda sender, payload: replies.append((sender, payload)))
    return network, nodes, replies


def make_request(request_id=0, client="client", value=None):
    name = "A" if client == "client" else "B"
    value = request_id if value is None else value
    request = ClientRequest(
        client=client, request_id=request_id, operation="out", arguments=(entry(name, value),)
    )
    return authenticate_request(request, AUTH, REPLICAS)


def wait(network, condition):
    if network.virtual_time:
        network.run()
        return condition()
    return network.run_until(condition, timeout=WAIT_MS)


# ----------------------------------------------------------------------
# The levers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_a_node_rewrite_verifies_where_the_same_link_rewrite_is_rejected(name):
    network = TRANSPORTS[name]()
    try:
        inbox = []
        for node in ("a", "b", "c"):
            network.register(node, lambda sender, payload: inbox.append((sender, payload)))
        honest = Checkpoint(sequence=8, state_digest="true", replica="a")

        def lie(payload):
            return dataclasses.replace(payload, state_digest="lie")

        network.set_fault("a", ReplicaFaultMode.LYING, rewrite=lie, sink=False, posts=True)
        network.broadcast("a", ("b", "c"), honest)
        assert wait(network, lambda: len(inbox) == 2)
        assert inbox == [("a", lie(honest))] * 2
        assert network.statistics["rejected"] == 0
        assert network.fault_of("a") is ReplicaFaultMode.LYING

        network.set_fault("a", ReplicaFaultMode.CORRECT, rewrite=None, sink=False, posts=True)
        network.set_tampering("a", lie)
        network.broadcast("a", ("b", "c"), honest)
        assert wait(network, lambda: network.statistics["rejected"] == 2)
        assert len(inbox) == 2
        assert network.fault_of("a") is ReplicaFaultMode.CORRECT
    finally:
        network.close()


def test_a_crashed_node_counts_deliveries_runs_nothing_and_recovers():
    network, nodes, _ = make_cluster()
    crashed = nodes[2]
    set_fault(crashed, ReplicaFaultMode.CRASHED)
    posted = []
    network.post("r2", lambda: posted.append("r2"))
    delivered = network.statistics["delivered"]
    network.send("client", "r2", make_request())
    network.run()
    assert network.statistics["delivered"] == delivered + 1
    assert crashed.statistics["buffered"] == 0 and posted == []

    set_fault(crashed, ReplicaFaultMode.CORRECT)
    network.post("r2", lambda: posted.append("r2"))
    network.send("client", "r2", make_request())
    network.run()
    assert posted == ["r2"]
    assert crashed.statistics["buffered"] == 1


def test_a_mute_node_executes_sends_nothing_and_starts_no_view_change():
    network, nodes, replies = make_cluster()
    mute, correct = nodes[3], nodes[2]
    set_fault(mute, ReplicaFaultMode.MUTE)
    # Link tampering shares the node's row: it would see any frame r3 sent.
    sent = []
    network.set_tampering("r3", lambda payload: sent.append(payload) or payload)
    network.broadcast("client", REPLICAS, make_request(0))
    network.run()
    assert mute.last_executed == 1 and mute.application.space.snapshot()
    assert sent == [] and "r3" not in {sender for sender, _ in replies}

    # A request only the backups r2 and r3 hold goes overdue at both.
    for node in ("r2", "r3"):
        network.send("client", node, make_request(1))
    network.run()
    network.advance_time(50.0)
    for node in nodes:
        network.post(node.replica_id, node.check_timeouts)
    network.run()
    assert correct.statistics["view_changes_started"] == 1
    assert mute.statistics["view_changes_started"] == 0 and sent == []


# ----------------------------------------------------------------------
# Byzantine replicas against the protocol
# ----------------------------------------------------------------------


def test_an_equivocating_primary_cannot_split_the_correct_replicas():
    network, nodes, _ = make_cluster()
    other = Batch(requests=(make_request(0, client="other"),))
    pre_prepares = []

    def equivocate(payload):
        # The second PRE-PREPARE of the broadcast (to r2) carries another
        # genuine, client-authenticated batch at the same sequence.
        if type(payload) is PrePrepare:
            pre_prepares.append(payload)
            if len(pre_prepares) == 2:
                return dataclasses.replace(payload, batch=other, batch_digest=digest(other))
        return payload

    set_fault(nodes[0], ReplicaFaultMode.LYING, rewrite=equivocate)
    network.broadcast("client", REPLICAS, make_request(0))
    network.run()
    correct = nodes[1:]
    executed = {node.replica_id: node.application.space.snapshot() for node in correct}
    assert len(pre_prepares) == 3
    assert len({tuple(state) for state in executed.values() if state}) == 1


def _probe_cluster():
    network, nodes, _ = make_cluster()
    network.partition("r1", "r0")
    network.partition("r1", "r2")
    network.partition("r1", "r3")
    network.broadcast("client", ("r0", "r2", "r3"), make_request(0, value=1))
    network.run()
    network.heal_all()
    return network, nodes


@pytest.mark.xfail(strict=True, reason="ROADMAP 17(c)")
def test_a_lying_prepared_certificate_cannot_split_the_correct_replicas():
    network, nodes = _probe_cluster()
    assert [node.last_executed for node in nodes] == [1, 0, 1, 1]
    forged = Batch(requests=(make_request(0, client="other", value=2),))

    def claim(payload):
        if type(payload) is ViewChange:
            return dataclasses.replace(payload, prepared={1: (5, forged)})
        return payload

    set_fault(nodes[3], ReplicaFaultMode.LYING, rewrite=claim)
    for node in nodes[1:]:
        network.post(node.replica_id, node.force_view_change)
    network.run()
    correct = (nodes[0], nodes[1], nodes[2])
    assert all(node.view == 1 and node.last_executed == 1 for node in correct)
    states = {node.application.state_digest() for node in correct}
    assert len(states) == 1


def test_a_huge_claimed_sequence_cannot_hang_the_new_primary():
    space = connect("replicated", policy=open_policy())
    service, network = space.service, space.network
    client = space.bind("p0")
    client.out(entry("X", 0))
    batch = Batch(requests=())

    def claim(payload):
        if type(payload) is ViewChange:
            return dataclasses.replace(
                payload, highest_sequence=10**9, prepared={10**9: (0, batch)}
            )
        return payload

    set_fault(service.nodes[3], ReplicaFaultMode.LYING, rewrite=claim)
    for node in service.nodes:
        network.post(node.replica_id, node.force_view_change)
    network.run(max_events=100_000)
    assert all(node.view == 1 for node in service.nodes[:3])
    assert all(node.next_sequence < 10**6 for node in service.nodes[:3])
    client.out(entry("X", 1))
    assert client.rdp(template("X", 1)) == entry("X", 1)


# ----------------------------------------------------------------------
# The transport owns the view-change timeout
# ----------------------------------------------------------------------


def test_a_reactor_stall_elects_no_new_primary_on_the_loopback():
    with connect("replicated", policy=open_policy(), transport="asyncio") as space:
        client = space.bind("p0")
        client.out(entry("X", 0))
        network = space.network
        # The stall hits while the second out is in flight: the client's
        # 100 ms retransmission nudge then runs every replica's timer.
        future = client.submit_out(entry("X", 1))
        network.post(space.service.replica_ids[0], lambda: time.sleep(0.3))
        assert network.settle(future) and future.result() == ("OK", True)
        nodes = space.service.nodes
        assert network.view_change_timeout == 1_000.0
        assert [node.view for node in nodes] == [0] * 4
        assert [node.statistics["view_changes_started"] for node in nodes] == [0] * 4
