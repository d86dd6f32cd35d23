"""Tests for the authenticated channels and the discrete-event network."""

import dataclasses
import hashlib
import hmac

import pytest

from repro.errors import SimulationError
from repro.net import AsyncioLoopbackTransport, TcpTransport
from repro.net.codec import MESSAGE_CLASSES
from repro.replication import crypto
from repro.replication.crypto import KEY_CACHE_CAP, KeyStore, MessageAuthenticator, digest
from repro.replication.messages import ClientRequest, Prepare, authenticate_request
from repro.replication.network import NetworkConfig, SimulatedNetwork


class TestCrypto:
    def test_digest_is_deterministic_and_content_sensitive(self):
        assert digest({"a": 1}) == digest({"a": 1})
        assert digest({"a": 1}) != digest({"a": 2})

    def test_shared_keys_are_symmetric_and_pairwise_distinct(self):
        keystore = KeyStore()
        assert keystore.shared_key("a", "b") == keystore.shared_key("b", "a")
        assert keystore.shared_key("a", "b") != keystore.shared_key("a", "c")

    def test_mac_verification(self):
        authenticator = MessageAuthenticator(KeyStore())
        tag = authenticator.mac("a", "b", {"op": "out"})
        assert authenticator.verify("a", "b", {"op": "out"}, tag)
        assert not authenticator.verify("a", "b", {"op": "inp"}, tag)
        assert not authenticator.verify("c", "b", {"op": "out"}, tag)
        assert not authenticator.verify("a", "b", {"op": "out"}, "bogus-tag")

    def test_tags_are_hmac_sha256_over_the_canonical_bytes(self):
        # The reference construction, spelled out: caching the key and the
        # bytes must not change one byte of any tag.
        keystore = KeyStore()
        authenticator = MessageAuthenticator(keystore)
        payload = Prepare(view=0, sequence=3, batch_digest="d", replica="r1")
        for receiver in ("r0", "r2", "r0"):
            expected = hmac.new(
                keystore.shared_key("r1", receiver),
                crypto.canonical_bytes(payload),
                hashlib.sha256,
            ).hexdigest()
            assert authenticator.mac("r1", receiver, payload) == expected

    @pytest.mark.parametrize(
        "tag",
        ["é" * 64, None, 7, b"00" * 32, ("00" * 32,)],
        ids=["non-ascii", "none", "int", "bytes", "tuple"],
    )
    def test_verify_rejects_a_malformed_tag_and_never_raises(self, tag):
        # hmac.compare_digest raises TypeError on a non-ASCII str (and on
        # anything that is not str/bytes); a tag is outside input.
        authenticator = MessageAuthenticator(KeyStore())
        assert authenticator.verify("a", "b", {"op": "out"}, tag) is False

    def test_one_payload_sealed_for_many_receivers_is_serialised_once(self, count_calls):
        authenticator = MessageAuthenticator(KeyStore())
        serialised = count_calls(crypto, "canonical_bytes")
        derived = count_calls(KeyStore, "shared_key")
        payload = Prepare(view=0, sequence=1, batch_digest="d", replica="r0")
        receivers = ("r1", "r2", "r3")
        tags = [authenticator.mac("r0", receiver, payload) for receiver in receivers]
        assert len(serialised) == 1
        assert len(set(tags)) == len(receivers)  # one tag per pair, under that pair's key
        assert len(derived) == len(receivers)
        # Receivers recompute from what they hold: one serialisation each.
        for receiver, tag in zip(receivers, tags):
            assert authenticator.verify("r0", receiver, payload, tag)
        assert len(serialised) == 1 + len(receivers)
        # Second round: every key is already there.
        del derived[:]
        again = Prepare(view=0, sequence=2, batch_digest="d", replica="r0")
        for receiver in receivers:
            assert authenticator.verify(
                "r0", receiver, again, authenticator.mac("r0", receiver, again)
            )
        assert derived == []

    def test_client_mac_vector_serialises_the_request_once(self, count_calls):
        authenticator = MessageAuthenticator(KeyStore())
        serialised = count_calls(crypto, "canonical_bytes")
        request = ClientRequest(client="c", request_id=0, operation="out", arguments=(1,))
        replicas = ("r0", "r1", "r2", "r3")
        sealed = authenticate_request(request, authenticator, replicas)
        assert len(serialised) == 1
        assert len({tag for _, tag in sealed.auth}) == len(replicas)

    def test_equal_but_distinct_payloads_each_get_their_own_bytes(self, count_calls):
        # The memo is keyed by identity: a dataclasses.replace'd or merely
        # equal payload sealed right after another is never served the
        # other's bytes.
        authenticator = MessageAuthenticator(KeyStore())
        serialised = count_calls(crypto, "canonical_bytes")
        first = Prepare(view=0, sequence=1, batch_digest="d", replica="r0")
        changed = dataclasses.replace(first, sequence=2)
        twin = dataclasses.replace(changed, sequence=1)
        assert twin == first and twin is not first
        tags = [authenticator.mac("r0", "r1", payload) for payload in (first, changed, twin)]
        assert len(serialised) == 3
        assert tags[0] == tags[2] != tags[1]
        for payload, tag in zip((first, changed, twin), tags):
            assert authenticator.verify("r0", "r1", payload, tag)
        assert not authenticator.verify("r0", "r1", changed, tags[0])

    def test_verify_never_reads_the_senders_memo(self):
        # Seal P, then ask whether a *different* payload carries P's tag:
        # a verifier that reused the sender's bytes would say yes.
        authenticator = MessageAuthenticator(KeyStore())
        sealed = Prepare(view=0, sequence=1, batch_digest="d", replica="r0")
        tag = authenticator.mac("r0", "r1", sealed)
        assert not authenticator.verify("r0", "r1", ("forged", sealed), tag)
        assert authenticator.verify("r0", "r1", sealed, tag)

    def test_sealed_bytes_belong_to_the_object_last_sealed_only(self, count_calls):
        authenticator = MessageAuthenticator(KeyStore())
        first = Prepare(view=0, sequence=1, batch_digest="d", replica="r0")
        twin = dataclasses.replace(first)
        tag = authenticator.mac("r0", "r1", first)
        sealed = authenticator.sealed_bytes(first)
        assert sealed == crypto.canonical_bytes(first)
        assert authenticator.sealed_bytes(twin) is None  # equal is not enough
        serialised = count_calls(crypto, "canonical_bytes")
        assert authenticator.verify("r0", "r1", first, tag, sealed)
        assert serialised == []  # the sealed bytes are MAC'd as they are
        assert not authenticator.verify("r0", "r1", first, tag, sealed + b".")
        authenticator.mac("r0", "r1", twin)
        assert authenticator.sealed_bytes(first) is None

    @pytest.mark.parametrize("cls", list(MESSAGE_CLASSES.values()), ids=list(MESSAGE_CLASSES))
    def test_every_message_class_is_a_frozen_dataclass(self, cls):
        # In-process receivers MAC the bytes sealed from the very object
        # they are handed; that is sound only while nobody can rewrite it.
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen

    def test_names_that_compare_equal_do_not_share_a_cached_key(self):
        # 1 == True == 1.0 as dict keys, but they are three principals to
        # the key derivation; the cache must not let one poison another.
        keystore = KeyStore()
        authenticator = MessageAuthenticator(keystore)
        assert not authenticator.verify(True, "r", "x", "00" * 32)  # cached first
        tag = authenticator.mac(1, "r", "x")
        assert tag == hmac.new(
            keystore.shared_key(1, "r"), crypto.canonical_bytes("x"), hashlib.sha256
        ).hexdigest()
        assert authenticator.verify(1, "r", "x", tag)
        assert not authenticator.verify(1.0, "r", "x", tag)

    def test_key_cache_is_bounded_under_hostile_sender_names(self, count_calls):
        authenticator = MessageAuthenticator(KeyStore())
        honest = authenticator.mac("peer", "victim", "legit")
        for index in range(10 * KEY_CACHE_CAP):
            assert not authenticator.verify(f"ghost-{index}", "victim", "evil", "00" * 32)
            assert len(authenticator._keys) <= KEY_CACHE_CAP
        assert authenticator.verify("peer", "victim", "legit", honest)
        # ... and the honest pair is cached again after the flood.
        derived = count_calls(KeyStore, "shared_key")
        assert authenticator.verify("peer", "victim", "legit", honest)
        assert derived == []


#: Wall-clock guard for every wait on a real transport (milliseconds).
WAIT_MS = 20_000.0


class FaultVocabulary:
    """The fault hooks every transport offers, checked once per transport:
    each subclass says which transport to build."""

    def build(self):
        return SimulatedNetwork(NetworkConfig(seed=7))

    @pytest.fixture
    def wired(self):
        network = self.build()
        inboxes = {node: [] for node in ("a", "b", "c", "d")}
        for node in inboxes:
            network.register(node, lambda s, p, node=node: inboxes[node].append((s, p)))
        try:
            yield network, inboxes
        finally:
            network.close()

    @staticmethod
    def settle(network, condition):
        """Deliver what is in flight, until ``condition()`` holds."""
        if network.virtual_time:
            network.run()
            assert condition()
        else:
            assert network.run_until(condition, timeout=WAIT_MS)

    def test_partition_and_heal(self, wired):
        network, inboxes = wired
        network.partition("a", "b")
        network.send("a", "b", "lost")
        assert network.statistics["dropped"] == 1
        network.heal("a", "b")
        network.send("a", "b", "found")
        self.settle(network, lambda: inboxes["b"])
        # Deliveries on a link keep their order: "lost" would have come first.
        assert inboxes["b"] == [("a", "found")]

    def test_tampered_payloads_are_rejected_by_authentication(self, wired):
        network, inboxes = wired
        network.set_tampering("a", lambda payload: ("forged", payload))
        network.send("a", "b", "original")
        self.settle(network, lambda: network.statistics["rejected"] == 1)
        assert inboxes["b"] == []
        network.set_tampering("a", None)
        network.send("a", "b", "clean")
        self.settle(network, lambda: inboxes["b"])
        assert inboxes["b"] == [("a", "clean")]
        assert network.statistics["rejected"] == 1

    def test_tampered_multicast_is_rejected_at_every_receiver(self, wired):
        # One payload object, sealed once for both receivers, rewritten in
        # flight: each receiver recomputes from what it was delivered.
        network, inboxes = wired
        network.set_tampering("a", lambda payload: dataclasses.replace(payload, sequence=99))
        network.broadcast("a", ["a", "b", "c"], Prepare(0, 1, "d", "a"))
        self.settle(network, lambda: network.statistics["rejected"] == 2)
        assert inboxes["b"] == inboxes["c"] == []
        assert network.statistics["delivered"] == 0

    def test_an_equal_but_distinct_copy_made_in_flight_is_delivered(self, wired):
        network, inboxes = wired
        sent = Prepare(0, 1, "d", "a")
        network.set_tampering("a", lambda payload: dataclasses.replace(payload))
        network.broadcast("a", tuple(inboxes), sent)
        self.settle(network, lambda: all(inboxes[node] for node in "bcd"))
        for node in "bcd":
            assert inboxes[node] == [("a", sent)] and inboxes[node][0][1] is not sent
        assert network.statistics["rejected"] == 0


class TestLoopbackFaults(FaultVocabulary):
    def build(self):
        return AsyncioLoopbackTransport()


class TestTcpFaults(FaultVocabulary):
    def build(self):
        return TcpTransport()


class TestNetwork(FaultVocabulary):
    def make_network(self, **kwargs):
        network = SimulatedNetwork(NetworkConfig(seed=7, **kwargs))
        inboxes = {"a": [], "b": [], "c": []}
        for node in inboxes:
            network.register(node, lambda sender, payload, node=node: inboxes[node].append((sender, payload)))
        return network, inboxes

    def test_send_and_run_delivers(self):
        network, inboxes = self.make_network()
        network.send("a", "b", "hello")
        network.run()
        assert inboxes["b"] == [("a", "hello")]
        assert network.statistics["delivered"] == 1

    def test_broadcast_excludes_sender(self):
        network, inboxes = self.make_network()
        network.broadcast("a", ("a", "b", "c"), "x")
        network.run()
        assert inboxes["a"] == []
        assert inboxes["b"] == [("a", "x")] and inboxes["c"] == [("a", "x")]

    def test_unknown_receiver_rejected(self):
        network, _ = self.make_network()
        with pytest.raises(SimulationError):
            network.send("a", "nope", "x")

    def test_duplicate_registration_rejected(self):
        network, _ = self.make_network()
        with pytest.raises(SimulationError):
            network.register("a", lambda s, p: None)

    def test_time_advances_monotonically(self):
        network, _ = self.make_network()
        network.send("a", "b", 1)
        network.send("b", "c", 2)
        assert network.now == 0.0
        network.run()
        assert network.now > 0.0
        with pytest.raises(SimulationError):
            network.advance_time(-1)

    def test_deterministic_given_seed(self):
        def run_once():
            network = SimulatedNetwork(NetworkConfig(seed=11))
            order = []
            for node in ("a", "b"):
                network.register(node, lambda s, p, node=node: order.append((node, p)))
            for i in range(10):
                network.send("a", "b", i)
                network.send("b", "a", i)
            network.run()
            return order

        assert run_once() == run_once()

    def test_drop_probability(self):
        network = SimulatedNetwork(NetworkConfig(seed=5, drop_probability=1.0))
        received = []
        network.register("a", lambda s, p: received.append(p))
        network.register("b", lambda s, p: received.append(p))
        network.send("a", "b", "x")
        network.run()
        assert received == []
        assert network.statistics["dropped"] == 1

    def make_group(self):
        network = SimulatedNetwork(NetworkConfig(seed=7))
        group = ("a", "b", "c", "d")
        inboxes = {node: [] for node in group}
        for node in group:
            network.register(node, lambda s, p, node=node: inboxes[node].append(p))
        return network, group, inboxes

    def test_a_field_rewritten_in_flight_is_rejected_at_all_three_receivers(self, count_calls):
        network, group, inboxes = self.make_group()
        network.set_tampering("a", lambda payload: dataclasses.replace(payload, batch_digest="x"))
        network.broadcast("a", group, Prepare(0, 1, "d", "a"))
        serialised = count_calls(crypto, "canonical_bytes")
        network.run()
        assert all(inboxes[node] == [] for node in group)
        assert network.statistics["rejected"] == 3
        # Each receiver serialised what it was handed, not the sealed bytes.
        assert len(serialised) == 3

    def test_run_until_condition(self):
        network, inboxes = self.make_network()
        network.send("a", "b", "x")
        network.send("a", "c", "y")
        reached = network.run_until(lambda: len(inboxes["b"]) == 1)
        assert reached
        # The remaining message is still delivered by a later run().
        network.run()
        assert inboxes["c"] == [("a", "y")]

    def test_run_guards_against_livelock(self):
        network, _ = self.make_network()

        def ping_forever(sender, payload):
            network.send("b", "a", payload)

        network_b_handler = ping_forever  # a and b ping-pong forever
        network2 = SimulatedNetwork(NetworkConfig(seed=1))
        network2.register("a", lambda s, p: network2.send("a", "b", p))
        network2.register("b", lambda s, p: network2.send("b", "a", p))
        network2.send("a", "b", "ping")
        with pytest.raises(SimulationError):
            network2.run(max_events=100)
