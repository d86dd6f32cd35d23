"""Transport conformance: one program, three substrates, equal results.

The acceptance bar of the ``repro.net`` subsystem: the lock-recipe
program from ``examples/unified_api_tour.py`` must produce observably
equivalent results on the deterministic :class:`SimulatedNetwork`, the
in-process :class:`AsyncioLoopbackTransport` and the localhost
:class:`TcpTransport` — for both the single replicated group and the
sharded cluster (two groups, one reactor per group).  Alongside the
conformance matrix, this file pins the transport contract itself:
timers, MAC authentication on the wire, reactor pinning, the cross-
thread future bridge, and lifecycle/teardown behaviour.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.api import connect
from repro.errors import OperationTimeoutError, SimulationError
from repro.net import AsyncioLoopbackTransport, TcpTransport, Transport, codec
from repro.net.transport import Reactor
from repro.obs import Observability
from repro.policy import AccessPolicy, Rule
from repro.replication import ReplicatedPEATS, crypto
from repro.replication.crypto import KeyStore, MessageAuthenticator, digest
from repro.replication.messages import ClientReply, ClientRequest, Prepare
from repro.replication.network import SimulatedNetwork
from repro.sim import CrashWindow, PartitionWindow, ScenarioEngine
from repro.tuples import ANY, Formal, entry, template

#: Wall-clock guard for every wait in this file (milliseconds).
WAIT_MS = 20_000.0


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="net-open"
    )


def lock_program(space, timeout: float) -> tuple:
    """The unified-API tour's mutex-token recipe, backend-agnostic."""
    alice, bob = space.bind("alice"), space.bind("bob")
    alice.out(entry("LOCK", "free"))
    first_take = alice.inp(template("LOCK", "free"))
    blocked = bob.inp(template("LOCK", "free"))
    alice.out(entry("LOCK", "free"))
    token = bob.in_(template("LOCK", ANY), timeout=timeout)
    try:
        bob.rd(template("NEVER", ANY), timeout=min(timeout, 250.0))
    except OperationTimeoutError:
        timed_out = True
    else:
        timed_out = False
    return (
        first_take is not None,
        blocked is None,
        token.fields[1],
        timed_out,
    )


def build_space(backend: str, transport):
    if backend == "replicated":
        return connect("replicated", policy=open_policy(), f=1, transport=transport)
    return connect(
        "sharded", policy=open_policy(), shards=2, f=1, transport=transport
    )


@pytest.mark.parametrize("backend", ["replicated", "sharded"])
def test_lock_recipe_equivalent_on_all_transports(backend):
    reference = None
    for transport in (None, "asyncio", "tcp"):
        space = build_space(backend, transport)
        try:
            outcome = lock_program(space, timeout=1_000.0)
        finally:
            space.close()
        if reference is None:
            reference = outcome
        assert outcome == reference, (
            f"{backend} on {transport or 'sim'}: {outcome} != {reference}"
        )
    assert reference == (True, True, "free", True)


def escrow_program(space) -> tuple:
    """One committed cross-shard transfer, one no-match abort."""
    teller = space.bind("teller")
    teller.out(entry("SRC", "tok"))
    moved = teller.transfer(template("SRC", ANY), entry("DST", "tok"))
    drained = (
        space.transact("teller")
        .in_(template("SRC", ANY))  # already moved: no match, clean abort
        .out(entry("DST", "ghost"))
        .commit()
    )
    stats = space.stats()["txn"]
    return (
        moved.committed,
        moved.results[0].fields[1],
        drained.committed,
        drained.reason,
        tuple(sorted(repr(item) for item in space.snapshot())),
        stats["committed"],
        stats["aborted"],
    )


def test_escrow_transfer_equivalent_on_all_transports():
    # The replicated-coordinator atomic commit (prepare, ordered votes,
    # pushed certificates, decision, apply) must behave identically on
    # the virtual-time simulation and on both real reactors.
    from repro.cluster import ExplicitRouting

    reference = None
    for transport in (None, "asyncio", "tcp"):
        space = connect(
            "sharded",
            policy=open_policy(),
            shards=2,
            f=1,
            routing=ExplicitRouting({"SRC": 0, "DST": 1}),
            transport=transport,
        )
        try:
            outcome = escrow_program(space)
        finally:
            space.close()
        if reference is None:
            reference = outcome
        assert outcome == reference, (
            f"txn on {transport or 'sim'}: {outcome} != {reference}"
        )
    assert reference[:4] == (True, "tok", False, ("no-match", 0))
    assert reference[4] == ("Entry('DST', 'tok')",)
    assert reference[5:] == (1, {"no-match": 1})


def test_sharded_cluster_gets_one_reactor_per_group():
    space = build_space("sharded", "asyncio")
    try:
        net = space.network
        assert net.reactor_count == 2
        shard0 = {net.reactor_of(f"shard-0:replica-{i}") for i in range(4)}
        shard1 = {net.reactor_of(f"shard-1:replica-{i}") for i in range(4)}
        assert len(shard0) == 1 and len(shard1) == 1
        assert shard0 != shard1, "replica groups must not share a reactor"
        # Clients stay on reactor 0 (their handlers serialise there).
        assert net.reactor_of("alice") is next(iter(shard0))
    finally:
        space.close()


def test_scatter_gather_runs_on_real_transport():
    space = build_space("sharded", "asyncio")
    try:
        view = space.bind("p1")
        view.out(entry("A", 1))
        view.out(entry("B", 2))
        probe = view.submit_rdp(template(ANY, ANY))
        assert probe.wait(WAIT_MS / 1000.0)
        status, value = probe.result()
        assert status == "OK" and value is not None
        assert probe.shard in (0, 1)
        take = view.inp(template(ANY, ANY))
        assert take is not None
    finally:
        space.close()


# ----------------------------------------------------------------------
# The Transport contract itself
# ----------------------------------------------------------------------


def test_simulated_network_satisfies_the_protocol():
    assert isinstance(SimulatedNetwork(), Transport)
    assert SimulatedNetwork.virtual_time is True


def test_real_transports_satisfy_the_protocol():
    for transport in (AsyncioLoopbackTransport(), TcpTransport()):
        try:
            assert isinstance(transport, Transport)
            assert transport.virtual_time is False
            for fault_hook in ("partition", "heal", "heal_all", "set_tampering"):
                assert callable(getattr(transport, fault_hook))
        finally:
            transport.close()


def test_loopback_delivers_authenticated_messages():
    with AsyncioLoopbackTransport() as net:
        received = []
        net.register("a", lambda sender, payload: None)
        net.register("b", lambda sender, payload: received.append((sender, payload)))
        net.send("a", "b", ("hello", 1))
        assert net.run_until(lambda: len(received) == 1, timeout=WAIT_MS)
        assert received == [("a", ("hello", 1))]
        assert net.statistics["delivered"] == 1


def test_duplicate_registration_and_unknown_receiver_raise():
    with AsyncioLoopbackTransport() as net:
        net.register("a", lambda s, p: None)
        with pytest.raises(SimulationError):
            net.register("a", lambda s, p: None)
        with pytest.raises(SimulationError):
            net.send("a", "ghost", "payload")


def test_timers_fire_and_cancel():
    with AsyncioLoopbackTransport() as net:
        fired = []
        net.schedule_after(10.0, lambda: fired.append("kept"))
        cancelled = net.schedule_after(10.0, lambda: fired.append("cancelled"))
        cancelled.cancel()
        assert net.run_until(lambda: "kept" in fired, timeout=WAIT_MS)
        time.sleep(0.05)
        assert fired == ["kept"]
        with pytest.raises(SimulationError):
            net.schedule_after(-1.0, lambda: None)


def test_run_until_times_out_to_false():
    with AsyncioLoopbackTransport() as net:
        start = time.monotonic()
        assert net.run_until(lambda: False, timeout=50.0) is False
        assert time.monotonic() - start < 5.0


def test_post_runs_on_the_nodes_reactor():
    with AsyncioLoopbackTransport(reactors=2) as net:
        net.pin("n", 1)
        net.register("n", lambda s, p: None)
        seen = []

        def probe() -> None:
            import asyncio

            seen.append(asyncio.get_running_loop())

        net.post("n", probe)
        assert net.run_until(lambda: seen, timeout=WAIT_MS)
        assert seen[0] is net.reactor_of("n").loop


def test_handler_exceptions_do_not_kill_the_reactor():
    with AsyncioLoopbackTransport() as net:
        def explode(sender, payload):
            raise RuntimeError("boom")

        arrived = []
        net.register("bad", explode)
        net.register("ok", lambda s, p: arrived.append(p))
        net.register("src", lambda s, p: None)
        net.send("src", "bad", 1)
        net.send("src", "ok", 2)
        assert net.run_until(lambda: arrived, timeout=WAIT_MS)
        assert net.statistics["handler_errors"] == 1
        assert isinstance(net.last_handler_error, RuntimeError)


def test_forged_tcp_frame_is_rejected_before_the_handler():
    """An attacker with a raw socket but no keys cannot inject messages."""
    obs = Observability()
    with TcpTransport(obs=obs) as net:
        received = []
        net.register("victim", lambda s, p: received.append(p))
        net.register("peer", lambda s, p: None)
        host, port = net.address_of("victim")
        payload_bytes = codec.encode_payload(("evil", 666))
        frame = codec.encode_frame("peer", "victim", payload_bytes, mac="00" * 32)
        with socket.create_connection((host, port)) as sock:
            sock.sendall(frame)
            time.sleep(0.2)
        assert received == []
        assert net.statistics["rejected"] == 1
        (event,) = obs.flight.events("victim")
        assert event["kind"] == "net-reject" and event["reason"] == "bad-mac"
        assert event["sender"] == "peer"
        # A genuine send still goes through afterwards.
        net.send("peer", "victim", ("legit", 1))
        assert net.run_until(lambda: received, timeout=WAIT_MS)
        assert received == [("legit", 1)]


def test_a_backlog_for_an_unreachable_peer_is_dropped_and_recorded():
    with socket.socket() as probe:  # a port nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
    obs = Observability()
    with TcpTransport(addresses={"ghost": address}, obs=obs) as net:
        net.register("a", lambda s, p: None)
        net.send("a", "ghost", ("hello", 1))
        assert net.run_until(lambda: net.statistics["dropped"] >= 1, timeout=WAIT_MS)
        assert net.statistics["rejected"] == 0
        (event,) = obs.flight.events("a")
        assert event["kind"] == "msg-drop" and event["reason"] == "unreachable"
        assert event["receiver"] == "ghost"


def test_oversized_tcp_frame_is_cut_off():
    obs = Observability()
    with TcpTransport(obs=obs) as net:
        received = []
        net.register("victim", lambda s, p: received.append(p))
        host, port = net.address_of("victim")
        with socket.create_connection((host, port)) as sock:
            sock.sendall(struct.pack(codec.FRAME_HEADER, codec.MAX_FRAME_BYTES + 1))
            sock.sendall(b"x" * 64)
            time.sleep(0.2)
        assert received == []
        assert net.statistics["rejected"] == 1
        (event,) = obs.flight.events("victim")
        assert event["kind"] == "net-reject" and event["reason"] == "oversized-frame"


def _on_reactor(network, node, read):
    """``read()`` evaluated in ``node``'s serial context, waited for here."""
    box = []
    network.post(node, lambda: box.append(read()))
    assert network.run_until(lambda: box, timeout=WAIT_MS)
    return box[0]


def test_a_fault_schedule_runs_over_real_reactors():
    """The sim's fault schedule on a loopback group's wall clock: replica 3
    is cut off, then crashed, while a kv program runs to completion."""
    service = ReplicatedPEATS(open_policy(), f=1, network=AsyncioLoopbackTransport())
    network = service.network
    try:
        engine = ScenarioEngine(service)
        start = network.now
        PartitionWindow(start=start + 20, end=start + 120, left=[3], right=[0, 1, 2]).schedule(
            engine
        )
        CrashWindow(replica=3, start=start + 150, end=start + 250).schedule(engine)
        space = connect(service=service).bind("kv-client")
        acknowledged = []
        while network.now < start + 300 or len(acknowledged) < 20:
            stored = entry("KV", len(acknowledged), "value")
            space.out(stored)
            acknowledged.append(stored)
            assert space.rdp(template("KV", stored.fields[1], ANY)) == stored
        trace = engine.metrics.trace_text()
        for fault in ("partition", "heal", "crash replica-3", "recover replica-3"):
            assert fault in trace
        head = service.replica_ids[0]
        snapshot = _on_reactor(network, head, service.snapshot)
        assert set(acknowledged) <= set(snapshot)
        heights = _on_reactor(
            network,
            head,
            lambda: [
                (node.last_executed, node.application.state_digest())
                for node in service.correct_nodes()
            ],
        )
        for height, digest_at in heights:
            assert {d for h, d in heights if h == height} == {digest_at}
        assert network.statistics["dropped"] > 0
        assert network.statistics["rejected"] == 0
    finally:
        network.close()


def test_close_is_idempotent_and_quiesces_sends():
    net = AsyncioLoopbackTransport()
    net.register("a", lambda s, p: None)
    net.register("b", lambda s, p: None)
    net.close()
    net.close()
    net.send("a", "b", "after-close")  # silently quiesced, never raises
    with pytest.raises(SimulationError):
        net.register("c", lambda s, p: None)


def test_connect_failure_does_not_leak_reactor_threads():
    import threading

    from repro.errors import ReplicationError, TupleSpaceError
    from repro.replication.network import NetworkConfig

    before = threading.active_count()
    # Conflicting options are rejected before any transport is built …
    with pytest.raises(TupleSpaceError):
        connect(
            "replicated",
            policy=open_policy(),
            transport="asyncio",
            network_config=NetworkConfig(),
        )
    # … and a deployment constructor failing closes the built transport.
    with pytest.raises(ReplicationError):
        connect("replicated", policy=open_policy(), f=-1, transport="asyncio")
    assert threading.active_count() == before


def test_future_bridge_waits_across_threads():
    space = build_space("replicated", "asyncio")
    try:
        future = space.bind("alice").submit_out(entry("JOB", 1))
        assert future.wait(WAIT_MS / 1000.0)
        status, _ = future.result()
        assert status == "OK"
        assert future.latency is not None and future.latency >= 0.0
    finally:
        space.close()


def test_time_unit_reflects_the_transport():
    sim_space = build_space("replicated", None)
    assert sim_space.time_unit == "simulated ms"
    real_space = build_space("replicated", "asyncio")
    try:
        assert real_space.time_unit == "wall-clock ms"
    finally:
        real_space.close()


class _CheckTimeoutsSpy(AsyncioLoopbackTransport):
    """Loopback variant recording post() targets (nudge marshalling)."""

    name = "spy"

    def __init__(self) -> None:
        super().__init__(reactors=1)
        self.posted = []

    def post(self, node, callback) -> None:
        self.posted.append(node)
        super().post(node, callback)


def test_view_change_nudges_are_marshalled_through_post():
    from repro.replication.service import ReplicatedPEATS

    net = _CheckTimeoutsSpy()
    try:
        service = ReplicatedPEATS(open_policy(), f=1, network=net)
        service.check_timeouts()
        assert net.run_until(lambda: len(net.posted) == 4, timeout=WAIT_MS)
        assert set(net.posted) == set(service.replica_ids)
    finally:
        net.close()


# ----------------------------------------------------------------------
# The per-message tax is paid once (counted with plain wrappers, per thread:
# the ``count_calls`` fixture of conftest.py)
# ----------------------------------------------------------------------


TRANSPORTS = {
    "sim": SimulatedNetwork,
    "loopback": AsyncioLoopbackTransport,
    "tcp": TcpTransport,
}


@pytest.mark.parametrize("kind", list(TRANSPORTS))
def test_a_broadcast_serialises_once_and_a_second_round_derives_no_key(
    kind, monkeypatch, count_calls
):
    peers = ("r0", "r1", "r2", "r3")
    net = TRANSPORTS[kind]()
    try:
        inboxes = {peer: [] for peer in peers}
        for peer in peers:
            net.register(peer, lambda s, p, peer=peer: inboxes[peer].append((s, p)))
        me = threading.get_ident()
        serialised = count_calls(crypto, "canonical_bytes")
        encoded = count_calls(codec, "encode_payload")
        derived = count_calls(KeyStore, "shared_key")
        original_mac = MessageAuthenticator.mac
        tags = []

        def recording_mac(self, sender, receiver, payload):
            tags.append(original_mac(self, sender, receiver, payload))
            return tags[-1]

        monkeypatch.setattr(MessageAuthenticator, "mac", recording_mac)

        def everyone_heard(count: int):
            return lambda: all(len(inboxes[peer]) == count for peer in peers[1:])

        first = Prepare(view=0, sequence=1, batch_digest="d", replica="r0")
        net.broadcast("r0", peers, first)
        # Sender side — this thread, before the simulation pumps a single
        # delivery: one canonical serialisation, one wire encoding on TCP,
        # and one tag per receiver under that pair's key.
        assert serialised.count(me) == 1
        assert encoded.count(me) == (1 if kind == "tcp" else 0)
        assert len(tags) == len(set(tags)) == len(peers) - 1
        assert net.run_until(everyone_heard(1))
        assert len(derived) == len(peers) - 1
        # Receiver side: the in-process transports hand each receiver the
        # bytes the sender sealed, so verifying serialises nothing; a TCP
        # receiver serialises the payload bytes it read off the socket.
        receiver_side = len(serialised) - 1
        assert receiver_side == (len(peers) - 1 if kind == "tcp" else 0)

        del derived[:]
        second = Prepare(view=0, sequence=2, batch_digest="d", replica="r0")
        net.broadcast("r0", peers, second)
        assert net.run_until(everyone_heard(2))
        assert derived == []
        assert all(inboxes[peer] == [("r0", first), ("r0", second)] for peer in peers[1:])
        assert net.statistics["rejected"] == 0
        assert net.statistics["delivered"] == 2 * (len(peers) - 1)
    finally:
        net.close()


def test_two_reactors_multicasting_concurrently_reject_nothing():
    """Two groups on two loops share one authenticator: its one-entry seal
    memo is overwritten from both threads at once and must only ever cost
    a miss, never seal one group's payload with the other's bytes."""
    rounds, size = 150, 4
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AsyncioLoopbackTransport(reactors=2) as net:
            groups = [tuple(f"g{g}-{i}" for i in range(size)) for g in range(2)]
            heard = {node: 0 for group in groups for node in group}

            def member(node: str, group: tuple):
                def on_message(sender, payload):
                    heard[node] += 1
                    # Every message from the group's first node is answered
                    # with a multicast of a fresh payload: (size-1) more
                    # sends of one object, back to back, on this loop.
                    if sender == group[0] and node != group[0]:
                        net.broadcast(node, group, Prepare(0, payload.sequence, "echo", node))

                return on_message

            for index, group in enumerate(groups):
                for node in group:
                    net.pin(node, index)
                    net.register(node, member(node, group))

            def drive(group: tuple):
                for sequence in range(rounds):
                    net.broadcast(group[0], group, Prepare(0, sequence, "lead", group[0]))

            for group in groups:
                net.post(group[0], lambda group=group: drive(group))
            # Per group and round: size-1 leads, then size-1 echoes to size-1 peers.
            expected = 2 * rounds * ((size - 1) + (size - 1) * (size - 1))
            assert net.run_until(lambda: sum(heard.values()) == expected, timeout=WAIT_MS)
            assert net.statistics["rejected"] == 0
            assert net.statistics["handler_errors"] == 0
            assert net.statistics["delivered"] == expected
    finally:
        sys.setswitchinterval(previous)


def test_one_process_submitting_from_many_threads_loses_nothing():
    """Regression: the replicas keep one request id per client, so of two
    requests one process had in flight, the one overtaken on the way was
    dropped as stale.  The client queues all but one per replica group;
    here threads race to submit and a reactor thread frees the slot."""
    threads, per_thread = 6, 8
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with connect("replicated", policy=open_policy(), f=1, transport="asyncio") as space:
            futures: list = []

            def submitter(index: int):
                for sequence in range(per_thread):
                    futures.append(space.submit_out(entry("T", index, sequence), process="p"))

            workers = [threading.Thread(target=submitter, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=WAIT_MS / 1000.0)
                assert not worker.is_alive()
            assert len(futures) == threads * per_thread
            for future in futures:
                assert future.wait(WAIT_MS / 1000.0)
                assert future.exception is None
            assert len(space.snapshot()) == threads * per_thread
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# A malformed tag is rejected, never raised
# ----------------------------------------------------------------------


def framed(body: bytes) -> bytes:
    """``body`` behind the wire's length prefix, whatever it contains."""
    return struct.pack(codec.FRAME_HEADER, len(body)) + body


def test_non_ascii_tcp_frame_mac_is_rejected_and_the_connection_keeps_serving():
    obs = Observability()
    with TcpTransport(obs=obs) as net:
        received = []
        net.register("victim", lambda s, p: received.append(p))
        net.register("peer", lambda s, p: None)
        payload_bytes = codec.encode_payload(("evil", 666))
        bad_mac = codec.encode_frame("peer", "victim", payload_bytes, mac="é" * 64)
        # The same envelope under a format byte the codec does not define:
        # one more rejected frame, nothing else.
        bad_format = framed(b"M" + bad_mac[struct.calcsize(codec.FRAME_HEADER) + 1 :])
        # Structurally hostile trees: an empty Entry as the sender, before
        # any MAC is checked; a dict with a list key as the payload of an
        # authenticated (Byzantine) peer; and release 0.6's tagged-JSON
        # envelope whose sender tree {"__t": 5} once killed this task.
        sender, receiver = b"j[4]", b"svictim"
        empty_entry_sender = framed(
            struct.pack(">cHHI", b"E", len(sender), len(receiver), len(payload_bytes))
            + sender
            + receiver
            + payload_bytes
            + b"00"
        )
        hostile_bytes = b"P[2,[1,1],1]"
        unhashable_key = codec.encode_frame(
            "peer", "victim", hostile_bytes, net.authenticator.mac("peer", "victim", hostile_bytes)
        )
        old_tree = framed(b'J{"s":{"__t":5},"r":"victim","p":{"__b":""},"m":""}')
        # An authentic frame for another node, written to this node's socket.
        misrouted = codec.encode_frame(
            "peer", "other", payload_bytes, net.authenticator.mac("peer", "other", payload_bytes)
        )
        legit_bytes = codec.encode_payload(("legit", 1))
        legit = codec.encode_frame(
            "peer", "victim", legit_bytes, net.authenticator.mac("peer", "victim", legit_bytes)
        )
        before = net.statistics["rejected"]
        with socket.create_connection(net.address_of("victim")) as sock:
            hostiles = (
                bad_mac, bad_format, empty_entry_sender, unhashable_key, old_tree, misrouted
            )
            for count, hostile in enumerate(hostiles, start=1):
                sock.sendall(hostile)
                assert net.run_until(
                    lambda: net.statistics["rejected"] == before + count, timeout=WAIT_MS
                )
            # Same connection, next frame: the serving task survived.
            sock.sendall(legit)
            assert net.run_until(lambda: received, timeout=WAIT_MS)
        assert received == [("legit", 1)]
        assert net.statistics["handler_errors"] == 0
        assert net.statistics["dropped"] == 0
    # Every reject is one flight event at the node that refused it, with why.
    assert [event["reason"] for event in obs.flight.events("victim")] == [
        "bad-mac",
        "undecodable-frame",
        "undecodable-frame",
        "undecodable-payload",
        "undecodable-frame",
        "misrouted",
    ]


def test_an_old_release_peer_frame_is_one_rejected_frame_never_delivered():
    """An honest release-0.6 peer — tagged JSON under format byte J, the
    payload base64'd inside, a valid MAC over its own payload bytes —
    cannot talk to this release: its frame is counted rejected, and
    never reaches the handler misparsed."""
    with TcpTransport() as net:
        received = []
        net.register("victim", lambda s, p: received.append(p))
        net.register("peer", lambda s, p: None)
        old_payload = b'J{"__t":["legit",1]}'
        old_frame = framed(
            b"J"
            + json.dumps(
                {
                    "s": "peer",
                    "r": "victim",
                    "p": {"__b": base64.b64encode(old_payload).decode("ascii")},
                    "m": net.authenticator.mac("peer", "victim", old_payload),
                },
                separators=(",", ":"),
            ).encode("ascii")
        )
        legit_bytes = codec.encode_payload(("legit", 2))
        legit = codec.encode_frame(
            "peer", "victim", legit_bytes, net.authenticator.mac("peer", "victim", legit_bytes)
        )
        before = net.statistics["rejected"]
        with socket.create_connection(net.address_of("victim")) as sock:
            sock.sendall(old_frame)
            assert net.run_until(lambda: net.statistics["rejected"] == before + 1, timeout=WAIT_MS)
            sock.sendall(legit)
            assert net.run_until(lambda: received, timeout=WAIT_MS)
        assert received == [("legit", 2)]
        assert net.statistics["handler_errors"] == 0


@pytest.mark.parametrize("kind", list(TRANSPORTS))
def test_hostile_client_mac_vector_is_dropped_and_the_group_keeps_committing(kind):
    net = TRANSPORTS[kind]()
    try:
        service = ReplicatedPEATS(open_policy(), f=1, network=net)
        net.register("mallory", lambda sender, payload: None)
        for tag in ("é" * 64, None, 7):
            hostile = ClientRequest(
                client="mallory",
                request_id=0,
                operation="out",
                arguments=(entry("EVIL", 1),),
                auth=tuple((replica, tag) for replica in service.replica_ids),
            )
            net.broadcast("mallory", service.replica_ids, hostile)
        # An honest request behind the hostile ones is ordered and executed.
        client = service.client("alice")
        assert client.invoke("out", (entry("OK", 1),)) == ("OK", True)
        assert net.run_until(lambda: all(node.last_executed == 1 for node in service.nodes))
        assert service.snapshot() == (entry("OK", 1),)
        assert net.statistics["handler_errors"] == 0
        assert net.statistics["rejected"] == 0  # the envelopes were mallory's own, and valid
    finally:
        net.close()


@pytest.mark.parametrize("operation", ["out", "rdp"])
@pytest.mark.parametrize("kind", ["sim", "loopback"])
def test_a_forged_result_under_the_honest_digest_is_never_returned(kind, operation):
    """One Byzantine replica, no collusion: it answers *first*, claiming the
    digest the correct replicas will produce over a result of its own.  It
    is the primary, so no correct replica can answer before it has."""
    net = TRANSPORTS[kind]()
    try:
        service = ReplicatedPEATS(open_policy(), f=1, network=net)
        client = service.client("alice")
        if operation == "out":
            arguments, honest = (entry("K", 1),), ("OK", True)
        else:
            assert client.invoke("out", (entry("K", 1),)) == ("OK", True)
            arguments, honest = (template("K", Formal("v")),), ("OK", entry("K", 1))
        forged = ("OK", entry("K", 666))
        liar = service.nodes[0]
        ordered = liar._handlers[ClientRequest]

        def forge_then_order(sender, request):
            liar._send(
                sender,
                ClientReply(liar.replica_id, liar.view, request.key, digest(honest), forged),
            )
            ordered(sender, request)

        liar._handlers[ClientRequest] = forge_then_order
        liar._reply = lambda request, result: None  # its one vote is the forgery
        assert client.invoke(operation, arguments) == honest
        # The forgery was in the f + 1 set, ahead of every honest reply.
        assert client.statistics["mismatched_replies"] == 1
        assert net.statistics["handler_errors"] == 0
    finally:
        net.close()


# ----------------------------------------------------------------------
# Reactor.call_soon: one FIFO whichever thread queues
# ----------------------------------------------------------------------


def test_reactor_call_soon_keeps_submission_order_from_both_sides():
    reactor = Reactor("test-reactor-order")
    try:
        ran: list[tuple[str, int]] = []
        done = threading.Event()
        count = 500

        def from_the_loop() -> None:
            # Queued from the reactor's own thread, while the foreign
            # thread below is queueing too.
            for index in range(count):
                reactor.call_soon(lambda index=index: ran.append(("loop", index)))
            reactor.call_soon(done.set)

        reactor.call_soon(from_the_loop)
        for index in range(count):
            reactor.call_soon(lambda index=index: ran.append(("foreign", index)))
        assert done.wait(WAIT_MS / 1000.0)
        foreign_done = threading.Event()
        reactor.call_soon(foreign_done.set)
        assert foreign_done.wait(WAIT_MS / 1000.0)
        for side in ("loop", "foreign"):
            assert [index for who, index in ran if who == side] == list(range(count))
    finally:
        reactor.stop()
    # After stop() the loop is closed: a quiet no-op, from any thread.
    reactor.call_soon(lambda: ran.append(("late", 0)))
    assert ("late", 0) not in ran


def test_a_raising_callback_does_not_stop_the_ones_queued_after_it():
    reactor = Reactor("test-reactor-raise")
    try:
        errors, ran = [], []
        reactor.loop.set_exception_handler(lambda loop, context: errors.append(context))
        done = threading.Event()

        def explode() -> None:
            raise RuntimeError("boom")

        reactor.call_soon(explode)
        reactor.call_soon(ran.append, "after")
        reactor.call_soon(done.set)
        assert done.wait(WAIT_MS / 1000.0)
        assert ran == ["after"]
        assert [type(context["exception"]) for context in errors] == [RuntimeError]
    finally:
        reactor.stop()


def test_a_callback_reposting_itself_forever_does_not_starve_a_timer():
    with AsyncioLoopbackTransport() as net:
        net.register("n", lambda s, p: None)
        spins, fired = [], threading.Event()
        quit_spinning = threading.Event()

        def spin() -> None:
            spins.append(None)
            if not quit_spinning.is_set():
                net.post("n", spin)

        net.post("n", spin)
        assert net.run_until(lambda: len(spins) > 100, timeout=WAIT_MS)
        net.schedule_after(5.0, fired.set)
        try:
            assert fired.wait(5.0)
        finally:
            quit_spinning.set()
        assert net.statistics["timers_fired"] == 1


def test_call_soon_after_stop_leaves_the_mailbox_empty():
    reactor = Reactor("test-reactor-stopped")
    reactor.stop()
    for _ in range(10_000):
        reactor.call_soon(lambda: None)
    assert reactor.pending == 0


def test_real_transport_reports_the_deliveries_waiting_in_its_mailboxes():
    with AsyncioLoopbackTransport() as net:
        received = []
        net.register("a", lambda s, p: None)
        net.register("b", lambda s, p: received.append(p))
        entered, release = threading.Event(), threading.Event()

        def block() -> None:
            entered.set()
            release.wait(WAIT_MS / 1000.0)

        net.post("b", block)
        assert entered.wait(WAIT_MS / 1000.0)
        for index in range(5):
            net.send("a", "b", index)
        assert net.statistics["pending"] == 5
        release.set()
        assert net.run_until(lambda: len(received) == 5, timeout=WAIT_MS)
        assert net.statistics["pending"] == 0
        assert received == list(range(5))
