"""Tests for the authenticated channels and the discrete-event network."""

import pytest

from repro.errors import SimulationError
from repro.replication.crypto import KeyStore, MessageAuthenticator, digest
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


class TestNetwork:
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

    def test_partition_and_heal(self):
        network, inboxes = self.make_network()
        network.partition("a", "b")
        network.send("a", "b", "lost")
        network.run()
        assert inboxes["b"] == []
        network.heal("a", "b")
        network.send("a", "b", "found")
        network.run()
        assert inboxes["b"] == [("a", "found")]

    def test_drop_probability(self):
        network = SimulatedNetwork(NetworkConfig(seed=5, drop_probability=1.0))
        received = []
        network.register("a", lambda s, p: received.append(p))
        network.register("b", lambda s, p: received.append(p))
        network.send("a", "b", "x")
        network.run()
        assert received == []
        assert network.statistics["dropped"] == 1

    def test_tampered_payloads_are_rejected_by_authentication(self):
        network, inboxes = self.make_network()
        network.set_tampering("a", lambda payload: ("forged", payload))
        network.send("a", "b", "original")
        network.run()
        assert inboxes["b"] == []
        assert network.statistics["rejected"] == 1
        network.set_tampering("a", None)
        network.send("a", "b", "clean")
        network.run()
        assert inboxes["b"] == [("a", "clean")]

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
