"""The primary proposes once per reactor turn.

A request no longer makes the primary pre-prepare at once: it posts one
drain to its own loop, and every request delivered before that drain
runs joins the same ``PRE-PREPARE`` (up to ``max_batch_size``).  On the
loopback and on TCP the drain queues behind the reactor's mailbox, so
requests that land together share a batch; the simulation's ``post``
runs the drain inline, so the sim orders exactly as before.  The unit
tests at the end queue the posted drains and run them by hand, in the
style of ``test_replication_pbft_unit.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import connect
from repro.obs import Observability
from repro.policy import AccessPolicy, Rule
from repro.replication.crypto import KeyStore, MessageAuthenticator
from repro.replication.messages import ClientRequest, authenticate_request
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.pbft import OrderingNode
from repro.replication.replica import PEATSReplica
from repro.tuples import entry

#: Wall-clock guard for every wait on a real transport (seconds).
WAIT_S = 20.0


def open_policy() -> AccessPolicy:
    return AccessPolicy([Rule("out", "out"), Rule("rdp", "rdp")], name="turn-open")


def on_reactor(space, action):
    """``action()`` run on the reactor the one-shard group and its
    clients share (inline on the sim); its result."""
    box: dict = {}
    done = threading.Event()

    def run() -> None:
        try:
            box["value"] = action()
        finally:
            done.set()

    space.network.post("replica-0", run)
    assert done.wait(WAIT_S)
    return box["value"]


def quiesce(space) -> None:
    """Let every message in flight land."""
    network = space.network
    if network.virtual_time:
        network.run()
        return
    previous = None
    while previous != network.statistics["delivered"]:
        previous = network.statistics["delivered"]
        network.run_for(50.0)


def batch_sizes(obs) -> dict:
    """The primary's batch-size histogram: count, sum and cumulative buckets."""
    (row,) = [
        row
        for row in obs.registry.snapshot()["pbft_batch_size"]["samples"]
        if row["labels"] == {"node": "replica-0"}
    ]
    return row


def one_turn(transport: str, processes: int) -> dict:
    """Bind ``processes`` clients (one ``out`` each), then submit one more
    ``out`` per process from a single posted callback.  Returns what the
    turn added to the primary's batch-size histogram (``batches``,
    ``requests``, per-bucket ``grew``) and to each replica's executed
    count, plus the primary's ``Space.stats()`` entry and the shard's
    ``batch_size_mean`` at the end."""
    obs = Observability()
    # A stalled machine must not read as a slow primary: a view change
    # would move the batch to another node.
    space = connect(
        "replicated",
        policy=open_policy(),
        transport=transport,
        obs=obs,
        view_change_timeout=60_000.0,
    )
    try:
        names = [f"p{index}" for index in range(processes)]
        for name in names:
            assert space.out(entry("bound", name), process=name)
        quiesce(space)
        nodes = space.service.nodes
        sizes, executed = batch_sizes(obs), [node.statistics["requests_executed"] for node in nodes]
        futures = on_reactor(
            space,
            lambda: [space.submit("out", (entry("turn", name),), process=name) for name in names],
        )
        for future in futures:
            assert space.network.settle(future, WAIT_S * 1000.0)
            assert future.result() == ("OK", True)
        quiesce(space)
        after = batch_sizes(obs)
        (shard,) = space.service.shard_statistics().values()
        return {
            "batches": after["count"] - sizes["count"],
            "requests": after["sum"] - sizes["sum"],
            "grew": {le: after["buckets"][le] - sizes["buckets"][le] for le in sizes["buckets"]},
            "executed": [n.statistics["requests_executed"] - e for n, e in zip(nodes, executed)],
            "primary": space.stats()["nodes"]["replica-0"],
            "batch_size_mean": shard["batch_size_mean"],
        }
    finally:
        space.close()


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
def test_requests_of_one_turn_share_one_pre_prepare(transport):
    turn = one_turn(transport, 4)
    assert (turn["batches"], turn["requests"]) == (1, 4)
    assert turn["executed"] == [4, 4, 4, 4]
    # Batching shows without the ladder: four bound + four in one batch.
    assert (turn["primary"]["batches_proposed"], turn["primary"]["requests_proposed"]) == (5, 8)
    assert turn["batch_size_mean"] == pytest.approx(8 / 5)


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
def test_a_turn_past_max_batch_size_splits_into_eight_and_four(transport):
    turn = one_turn(transport, 12)
    # Two batches holding 12: one of at most 4, one of more than 4 and
    # at most 8 (max_batch_size) — so exactly 4 and 8.
    assert (turn["batches"], turn["requests"]) == (2, 12)
    assert (turn["grew"]["2"], turn["grew"]["4"], turn["grew"]["8"]) == (0, 1, 2)
    assert turn["executed"] == [12, 12, 12, 12]


def test_the_same_turn_on_the_sim_still_proposes_each_request_alone():
    turn = one_turn("sim", 4)
    assert (turn["batches"], turn["requests"]) == (4, 4)
    assert turn["executed"] == [4, 4, 4, 4]
    assert turn["batch_size_mean"] == 1.0


# ----------------------------------------------------------------------
# The posted drain, run by hand
# ----------------------------------------------------------------------

_AUTH = MessageAuthenticator(KeyStore())
_REPLICAS = tuple(f"r{i}" for i in range(4))


def make_request(request_id: int) -> ClientRequest:
    request = ClientRequest(
        client="client",
        request_id=request_id,
        operation="out",
        arguments=(entry("A", request_id),),
    )
    return authenticate_request(request, _AUTH, _REPLICAS)


def queued_cluster(obs=None):
    """Four nodes on a sim whose ``post`` queues callbacks instead of
    running them inline."""
    network = SimulatedNetwork(NetworkConfig(seed=3))
    posted: list = []
    network.post = lambda node, callback: posted.append((node, callback))
    nodes = [
        OrderingNode(
            replica_id,
            _REPLICAS,
            1,
            PEATSReplica(replica_id, open_policy()),
            network,
            view_change_timeout=10.0,
            obs=obs,
        )
        for replica_id in _REPLICAS
    ]
    replies: list = []
    network.register("client", lambda sender, payload: replies.append(payload))
    return network, nodes, posted, replies


def run_posted(posted) -> None:
    queued, posted[:] = list(posted), []
    for _, callback in queued:
        callback()


def change_view(network, nodes) -> None:
    for node in nodes:
        node.force_view_change()
    network.run()


def pending_depth(obs, node: str) -> float:
    (row,) = [
        row
        for row in obs.registry.snapshot()["pbft_pending_depth"]["samples"]
        if row["labels"] == {"node": node}
    ]
    return row["value"]


def test_only_the_primary_posts_and_only_once_per_turn():
    obs = Observability()
    network, nodes, posted, _ = queued_cluster(obs)
    for request_id in range(3):
        network.broadcast("client", _REPLICAS, make_request(request_id))
    network.run()
    assert [node for node, _ in posted] == ["r0"]
    assert nodes[0].statistics["batches_proposed"] == 0
    assert pending_depth(obs, "r0") == 3
    run_posted(posted)
    assert pending_depth(obs, "r0") == 0
    network.run()
    assert nodes[0].statistics["batches_proposed"] == 1
    assert nodes[0].statistics["requests_proposed"] == 3
    assert all(node.last_executed == 1 for node in nodes)


def test_a_drain_after_a_view_change_started_proposes_nothing():
    network, nodes, posted, replies = queued_cluster()
    network.broadcast("client", _REPLICAS, make_request(0))
    network.run()
    assert len(posted) == 1
    nodes[0].force_view_change()
    run_posted(posted)
    assert nodes[0].statistics["batches_proposed"] == 0
    change_view(network, nodes)
    # The new primary drains the request itself on entering view 1.
    assert all(node.view == 1 for node in nodes)
    assert all(node.last_executed == 1 for node in nodes)
    assert nodes[1].statistics["batches_proposed"] == 1
    assert {reply.request_key for reply in replies} == {("client", 0)}
    assert not posted


def test_a_drain_outlived_by_a_view_change_does_not_stick():
    network, nodes, posted, _ = queued_cluster()
    network.broadcast("client", _REPLICAS, make_request(0))
    network.run()
    change_view(network, nodes)
    run_posted(posted)
    # Rotate the primary role back to r0 (view 4 of 4 replicas).
    for _ in range(3):
        change_view(network, nodes)
    assert all(node.view == 4 and node.is_primary is (node is nodes[0]) for node in nodes)
    executed = nodes[0].last_executed
    proposed = nodes[0].statistics["batches_proposed"]
    network.broadcast("client", _REPLICAS, make_request(1))
    network.run()
    assert [node for node, _ in posted] == ["r0"]
    run_posted(posted)
    network.run()
    assert nodes[0].statistics["batches_proposed"] == proposed + 1
    assert all(node.last_executed == executed + 1 for node in nodes)
