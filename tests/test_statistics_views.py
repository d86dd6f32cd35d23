"""Every counted fact has one store: the deployment's metrics registry.

``node.statistics``, ``client.statistics``, ``network.statistics`` and
``Space.stats()["txn"]`` are views over registry children, so a view and
its exported sample can never disagree — with a bundle attached or with
the private registry a deployment gets when built without ``obs=``.  The
regressions below each failed while the counts were kept twice.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.api import connect
from repro.cluster import ShardedPEATS
from repro.net import TcpTransport
from repro.obs import Observability
from repro.policy import AccessPolicy, Rule
from repro.replication.client import PEATSClient
from repro.replication import ReplicaFaultMode
from repro.sim import CrashWindow, Scenario, run_scenario
from repro.sim.workloads import write_burst
from repro.tuples import Formal, entry, template

#: Wall-clock guard for every wait on a real transport (milliseconds).
WAIT_MS = 20_000.0

OPERATIONS = ("out", "rdp", "inp", "cas", "txn_exec")

#: ``statistics`` key → metric family, per component.
NODE_FAMILIES = {
    "state_transfers": "pbft_state_transfers_total",
    "batches_proposed": "pbft_batches_total",
    "view_changes_started": "pbft_view_changes_total",
    "checkpoints_taken": "pbft_checkpoints_total",
    "truncations": "pbft_truncations_total",
    "reply_cache_hits": "pbft_reply_cache_hits_total",
    "requests_executed": "pbft_executed_total",
    # A histogram's sum: the requests its batches held.
    "requests_proposed": "pbft_batch_size",
}
CLIENT_FAMILIES = {
    "requests": "client_requests_total",
    "retransmissions": "client_retransmissions_total",
    "mismatched_replies": "client_mismatched_replies_total",
    "quorum_failures": "client_quorum_failures_total",
}
TRANSPORT_FAMILIES = {
    "delivered": "net_frames_delivered_total",
    "dropped": "net_frames_dropped_total",
    "rejected": "net_mac_rejects_total",
    "timers_fired": "net_timers_fired_total",
    "handler_errors": "net_handler_errors_total",
    "frames_sent": "net_frames_sent_total",
    "bytes_sent": "net_bytes_sent_total",
    "bytes_received": "net_bytes_received_total",
}


def open_policy() -> AccessPolicy:
    return AccessPolicy([Rule(op, op) for op in OPERATIONS], name="open")


def sample(registry, family: str, **labels) -> dict:
    """The one sample of ``family`` carrying exactly ``labels``."""
    wanted = {key: str(value) for key, value in labels.items()}
    (row,) = [
        row
        for row in registry.snapshot()[family]["samples"]
        if row["labels"] == wanted
    ]
    return row


# ----------------------------------------------------------------------
# Parity: every view equals its registry sample, bundle or no bundle
# ----------------------------------------------------------------------


@pytest.fixture(params=[False, True], ids=["no-bundle", "bundle"])
def exercised(request):
    """A replicated space on the asyncio loopback after a 16-op run."""
    obs = Observability() if request.param else None
    space = connect("replicated", policy=open_policy(), f=1, transport="asyncio", obs=obs)
    try:
        for key in range(4):
            space.out(entry("k", key), process="p0")
            space.rdp(template("k", key), process="p1")
            space.inp(template("k", Formal("v")), process="p1")
        space.out(entry("purse", 1), process="p0")
        space.transfer(template("purse", Formal("v")), entry("vault", 1), process="p0")
        with pytest.raises(Exception):  # nothing left to take: the txn aborts
            space.transfer(template("purse", Formal("v")), entry("vault", 2), process="p0")
        assert space.observability.enabled is request.param
        yield space
    finally:
        space.close()


def _node_views(space):
    for node in space.service.nodes:
        yield node.statistics, NODE_FAMILIES, {"node": node.replica_id}


def _client_views(space):
    for process in ("p0", "p1"):
        yield space.service.client(process).statistics, CLIENT_FAMILIES, {"client": process}
    totals = space.service.client_statistics()
    assert totals["requests"] == sum(
        space.service.client(p).statistics["requests"] for p in ("p0", "p1")
    )


def _transport_views(space):
    statistics = space.network.statistics
    assert isinstance(statistics.pop("now"), float)
    yield statistics, TRANSPORT_FAMILIES, {"transport": "loopback"}


@pytest.mark.parametrize("views", [_node_views, _client_views, _transport_views])
def test_statistics_are_int_views_of_the_registry(exercised, views):
    # Stop the reactors first: a late retransmission answered from the
    # reply cache between the view's read and the registry's would split
    # the two reads.
    exercised.close()
    registry = exercised.observability.registry
    counted = 0
    for statistics, families, labels in views(exercised):
        for key, value in statistics.items():
            assert type(value) is int, (key, value)
            if key in families:
                row = sample(registry, families[key], **labels)
                assert value == row.get("value", row.get("sum")), key
                counted += value
        assert set(families) <= set(statistics)
    assert counted > 0


def test_txn_stats_are_a_view_of_the_registry(exercised):
    registry = exercised.observability.registry
    txn = exercised.stats()["txn"]
    assert txn["committed"] == 1 and type(txn["committed"]) is int
    assert txn["committed"] == sample(registry, "txn_committed_total")["value"]
    assert txn["aborted"] and sum(txn["aborted"].values()) == 1
    for reason, count in txn["aborted"].items():
        assert type(count) is int
        assert count == sample(registry, "txn_aborted_total", reason=reason)["value"]
    latency = sample(registry, "txn_commit_latency")
    assert txn["commit_latency"]["count"] == latency["count"] == 1
    assert txn["commit_latency"]["total"] == latency["sum"]
    assert txn["commit_latency"]["max"] == latency["sum"]  # one observation
    assert set(txn["commit_latency"]) == {"count", "total", "max"}


def test_stats_shape_is_the_same_with_and_without_a_bundle():
    def keys(obs):
        space = connect("replicated", policy=open_policy(), f=1, obs=obs)
        space.out(entry("k", 1), process="p0")
        stats = space.stats()
        node = next(iter(stats["nodes"].values()))
        return set(stats["network"]), set(node), set(stats["txn"])

    assert keys(None) == keys(Observability())
    assert "handler_errors" in keys(None)[0]


@pytest.mark.parametrize("transport", ["sim", "asyncio", "tcp"])
def test_every_transport_counts_one_key_set_on_the_registry(transport):
    obs = Observability()
    space = connect("replicated", policy=open_policy(), f=1, transport=transport, obs=obs)
    try:
        space.out(entry("k", 1), process="p0")
        assert space.rdp(template("k", 1), process="p1") == entry("k", 1)
        network = space.network
        # Wait out the replies still in flight after the f+1 vote.
        previous = None
        while previous != network.statistics["delivered"]:
            previous = network.statistics["delivered"]
            network.run_for(0.0 if network.virtual_time else 50.0)
        stats = space.stats()
        assert set(stats["network"]) == {"now", "pending", *TRANSPORT_FAMILIES}
        assert "net_frames_delivered_total" in stats["metrics"]
        delivered = sample(obs.registry, "net_frames_delivered_total", transport=network.name)
        assert stats["network"]["delivered"] == delivered["value"] > 0
    finally:
        space.close()


# ----------------------------------------------------------------------
# Facts that used to have only one of the two stores
# ----------------------------------------------------------------------


def _resetting_peer():
    """A listening socket that accepts every connection and resets it."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(16)
    server.settimeout(0.05)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                connection, _ = server.accept()
            except OSError:
                continue
            connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            connection.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return server, stop, thread


def test_conceded_tcp_backlog_is_dropped_in_the_view_and_the_export():
    server, stop, thread = _resetting_peer()
    obs = Observability()
    try:
        with TcpTransport(addresses={"ghost": server.getsockname()}, obs=obs) as net:
            net.register("a", lambda sender, payload: None)
            # Larger than the socket buffers, so drain() is still waiting
            # when the reset arrives and every write attempt fails.
            blob = "x" * (8 * 1024 * 1024)
            for index in range(3):
                net.send("a", "ghost", (index, blob))
            assert net.run_until(lambda: net.statistics["dropped"] >= 3, timeout=WAIT_MS)
            exported = sample(obs.registry, "net_frames_dropped_total", transport="tcp")
            assert net.statistics["dropped"] == exported["value"] == 3
    finally:
        stop.set()
        thread.join(timeout=5.0)
        server.close()
    assert not thread.is_alive()


def test_mismatched_replies_are_exported():
    # Three independent liars out of four (beyond f, on purpose): a full
    # reply set in which no two replies match.
    obs = Observability()
    service = ShardedPEATS(
        open_policy(),
        shards=1,
        f=1,
        replica_faults={index: ReplicaFaultMode.LYING for index in (1, 2, 3)},
        obs=obs,
    )
    client = PEATSClient(
        "p0", service.replica_ids, 1, service.network, max_retransmissions=1, obs=obs
    )
    pending = client.submit("out", (entry("k", 1),))
    service.network.run_until(lambda: pending.done)
    assert pending.exception is not None
    mismatched = client.statistics["mismatched_replies"]
    assert mismatched >= 1
    exported = sample(obs.registry, "client_mismatched_replies_total", client="p0")
    assert exported["value"] == mismatched


def test_state_transfers_are_exported():
    obs = Observability()
    result = run_scenario(
        Scenario(
            name="crash-recover",
            clients=write_burst(8, ops_per_client=12),
            faults=(CrashWindow(replica=2, start=5.0, end=45.0),),
            checkpoint_interval=4,
            obs=obs,
        )
    )
    assert result.completed
    recovered = result.service.nodes[2]
    transfers = recovered.statistics["state_transfers"]
    assert transfers >= 1
    exported = sample(obs.registry, "pbft_state_transfers_total", node=recovered.replica_id)
    assert exported["value"] == transfers


# ----------------------------------------------------------------------
# Label cardinality: a hostile caller cannot mint registry children
# ----------------------------------------------------------------------


def _numeric_payload(invocation, state) -> bool:
    # Raises ValueError quoting the caller's own field on malformed input.
    return int(invocation.arguments[0].fields[1]) >= 0


@pytest.mark.parametrize("backend", ["local", "replicated"])
def test_denials_with_distinct_malformed_arguments_mint_a_bounded_label_set(backend):
    policy = AccessPolicy([Rule("out", "out", _numeric_payload)], name="numeric-only")
    obs = Observability()
    space = connect(backend, policy=policy, obs=obs)
    for index in range(1_000):
        assert not space.out(entry("k", f"bad-{index}"), process="mallory")
    denials = obs.registry.snapshot()["peats_denials_total"]["samples"]
    assert sum(row["value"] for row in denials) >= 1_000
    assert {row["labels"]["reason"] for row in denials} == {"evaluation-error"}
    # One child per (node, operation, kind) — not one per request.
    assert len(denials) <= 4
