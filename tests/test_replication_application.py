"""The ordering core replicates anything behind the Application interface.

Four ``OrderingNode``s on a simulated network drive a stub application —
an append-only log, no tuple space, no policy — through everything the
boundary promises: ordered execution, checkpoint state transfer, a view
change, the un-ordered client side channel and the push outbox.
"""

import dataclasses

from repro.replication.crypto import KeyStore, MessageAuthenticator
from repro.replication.messages import (
    ClientReply,
    ClientRequest,
    StateRequest,
    authenticate_request,
)
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication import OrderingNode, ReplicaFaultMode, set_fault

REPLICAS = tuple(f"r{i}" for i in range(4))
AUTH = MessageAuthenticator(KeyStore())


@dataclasses.dataclass(frozen=True)
class Appended:
    """The stub's push: tells the appending client where its line landed."""

    client: str
    position: int


class LogApplication:
    """An append-only log: the whole Application interface, nothing else."""

    def __init__(self):
        self.log, self.replies, self.outbox = [], {}, []
        self.side_channel, self.sent = [], []

    def execute(self, request):
        cached = self.replies.get(request.client)
        if cached is not None and cached[0] >= request.request_id:
            return cached[1]
        self.log.append(request.arguments)
        self.replies[request.client] = (request.request_id, ("OK", len(self.log)))
        self.outbox.append(Appended(request.client, len(self.log)))
        return ("OK", len(self.log))

    def execute_read_only(self, request):
        return ("OK", len(self.log)) if request.operation == "length" else None

    def cached_reply(self, request):
        cached = self.replies.get(request.client)
        return cached[1] if cached and cached[0] == request.request_id else None

    def last_request_id(self, client):
        cached = self.replies.get(client)
        return cached[0] if cached else None

    def capture_state(self):
        return (tuple(self.log), tuple(sorted(self.replies.items())))

    def install_state(self, state):
        self.log, self.replies = list(state[0]), dict(state[1])

    def on_client_message(self, sender, payload):
        self.side_channel.append((sender, payload))

    def drain_pushes(self):
        drained, self.outbox = tuple(self.outbox), []
        return drained

    def push_sent(self, push):
        self.sent.append(push)


def make_cluster(faults=None, **node_kwargs):
    network = SimulatedNetwork(NetworkConfig(seed=3))
    nodes = [
        OrderingNode(
            replica_id,
            REPLICAS,
            1,
            LogApplication(),
            network,
            view_change_timeout=10.0,
            **node_kwargs,
        )
        for replica_id in REPLICAS
    ]
    for index, mode in (faults or {}).items():
        set_fault(nodes[index], mode)
    inbox = []
    network.register("client", lambda sender, payload: inbox.append((sender, payload)))
    return network, nodes, inbox


def append(network, request_id, line="line"):
    request = ClientRequest("client", request_id, "append", (line, request_id))
    network.broadcast("client", REPLICAS, authenticate_request(request, AUTH, REPLICAS))
    network.run()


def test_requests_order_and_execute_identically_on_all_four():
    network, nodes, inbox = make_cluster()
    for i in range(5):
        append(network, i)
    logs = [node.application.log for node in nodes]
    assert logs[0] == [("line", i) for i in range(5)]
    assert all(log == logs[0] for log in logs)
    replies = [payload for _, payload in inbox if isinstance(payload, ClientReply)]
    assert len(replies) == 20
    assert {reply.result for reply in replies} == {("OK", i) for i in range(1, 6)}


def test_read_only_requests_reach_the_stub_unordered():
    network, nodes, inbox = make_cluster()
    append(network, 0)
    for request_id, operation in ((7, "length"), (8, "append")):
        request = ClientRequest("client", request_id, operation, ("x",), read_only=True)
        network.broadcast("client", REPLICAS, authenticate_request(request, AUTH, REPLICAS))
    network.run()
    lane = [
        payload.result
        for _, payload in inbox
        if isinstance(payload, ClientReply) and payload.request_key[1] in (7, 8)
    ]
    assert lane == [("OK", 1)] * 4  # "length" from every node; "append" unanswered
    assert all(node.application.log == [("line", 0)] for node in nodes)
    assert all(node.last_executed == 1 for node in nodes)


def test_lagging_node_catches_up_by_state_transfer():
    network, nodes, _ = make_cluster(
        faults={3: ReplicaFaultMode.CRASHED}, checkpoint_interval=4, max_batch_size=1
    )
    for i in range(6):
        append(network, i)
    live, lagging = nodes[:3], nodes[3]
    assert all(node.stable_checkpoint == 4 for node in live)
    assert lagging.application.log == []
    set_fault(lagging, ReplicaFaultMode.CORRECT)
    for node in live:
        network.send(node.replica_id, lagging.replica_id, node._own_checkpoint)
    network.run()
    assert lagging.statistics["state_transfers"] == 1
    assert lagging.last_executed == 6
    assert lagging.application.capture_state() == live[0].application.capture_state()


def test_view_change_reproposes_into_the_stub():
    network, nodes, _ = make_cluster(faults={0: ReplicaFaultMode.CRASHED})
    append(network, 0)
    live = nodes[1:]
    assert all(node.application.log == [] for node in live)
    network.advance_time(60.0)
    for node in nodes:
        node.check_timeouts()
    network.run()
    assert all(node.view == 1 for node in live)
    assert all(node.application.log == [("line", 0)] for node in live)


def test_unordered_client_payload_reaches_the_application_hook():
    network, nodes, inbox = make_cluster(checkpoint_interval=1)
    append(network, 0)
    inbox.clear()
    network.send("client", "r1", ("anything", "at all"))
    # A replica-to-replica protocol message from a client is the
    # application's to ignore as well: it never reaches the protocol
    # handlers, so a client cannot pull a state dump or stuff a quorum.
    probe = StateRequest(sequence=1, replica="client")
    network.send("client", "r1", probe)
    network.run()
    assert nodes[1].application.side_channel == [
        ("client", ("anything", "at all")),
        ("client", probe),
    ]
    assert nodes[0].application.side_channel == [] and inbox == []
    append(network, 1)
    assert all(node.last_executed == 2 for node in nodes)


def test_pushes_reach_their_addressee_only_from_non_silent_nodes():
    network, nodes, inbox = make_cluster(faults={2: ReplicaFaultMode.MUTE})
    append(network, 0)
    pushes = [(sender, payload) for sender, payload in inbox if isinstance(payload, Appended)]
    assert sorted(sender for sender, _ in pushes) == ["r0", "r1", "r3"]
    assert {payload for _, payload in pushes} == {Appended("client", 1)}
    mute = nodes[2].application
    # The MUTE node executed, was drained and sent, but nothing left: its
    # row of the fault table swallows the send below the node.
    assert mute.log == [("line", 0)] and mute.outbox == []
    assert mute.sent == [Appended("client", 1)]
    assert all(node.application.sent == [Appended("client", 1)] for node in nodes[:2])
