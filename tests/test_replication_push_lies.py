"""One lie table, complete: every replica→client push class has exactly
one LYING corruption, spelled once in ``replication/adversary.py``.

The end-to-end LYING scenarios stay where they were, untouched, as the
regression anchors of this refactor:
``tests/test_notify_watch.py::…::test_lying_replica_cannot_wake_or_corrupt_a_watch``
and ``tests/test_txn.py::TestLyingParticipant``.
"""

import ast
import dataclasses
import inspect

import pytest

from repro.obs import Observability
from repro.policy import AccessPolicy, Rule
from repro.replication import messages, replica
from repro.replication.crypto import digest
from repro.replication.adversary import PUSH_LIES
from repro.replication.messages import (
    Notify,
    TxnAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
)
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication import OrderingNode, ReplicaFaultMode, set_fault
from repro.replication.replica import PEATSReplica
from repro.tuples import entry

TXN = ("client", 7)
ENTRY = entry("A", 1)

#: One honest push per class, as replica ``r`` would enqueue it.
HONEST = {
    Notify: lambda r: Notify(r, "client", 1, ("producer", 0), ENTRY, digest(ENTRY)),
    TxnPrepare: lambda r: TxnPrepare(r, "client", TXN, (0, 1), 64),
    TxnVote: lambda r: TxnVote(r, "client", TXN, 1, "yes", None, digest(())),
    TxnDecision: lambda r: TxnDecision(r, "client", TXN, "commit", None),
    TxnAck: lambda r: TxnAck(r, "client", TXN, 1, "commit"),
}
FLIGHT_KIND = {
    Notify: "waiter-notify",
    TxnPrepare: "txn-decision",
    TxnVote: "txn-vote",
    TxnDecision: "txn-decision",
    TxnAck: "txn-decision",
}


def make_cluster():
    """r0 correct, r1 and r2 LYING, r3 MUTE — one shared observability."""
    obs = Observability()
    network = SimulatedNetwork(NetworkConfig(seed=3))
    ids = tuple(f"r{i}" for i in range(4))
    modes = ("CORRECT", "LYING", "LYING", "MUTE")
    policy = AccessPolicy([Rule("out", "out")], name="open")
    nodes = [
        OrderingNode(rid, ids, 1, PEATSReplica(rid, policy, obs=obs), network, obs=obs)
        for rid in ids
    ]
    for node, mode in zip(nodes, modes):
        set_fault(node, ReplicaFaultMode[mode])
    inbox = {}
    network.register("client", lambda sender, payload: inbox.__setitem__(sender, payload))
    return obs, network, nodes, inbox


def pushed_total(obs):
    samples = obs.registry.snapshot()["notify_pushed_total"]["samples"]
    return {sample["labels"]["node"]: sample["value"] for sample in samples}


@pytest.mark.parametrize("cls", sorted(HONEST, key=lambda c: c.__name__))
def test_each_liar_corrupts_independently_and_a_mute_node_sends_nothing(cls):
    obs, network, nodes, inbox = make_cluster()
    for node in nodes:
        node._push(HONEST[cls](node.replica_id))
    network.run()
    assert set(inbox) == {"r0", "r1", "r2"}
    assert inbox["r0"] == HONEST[cls]("r0")
    # A lie differs from the truth by more than the sender's id, and the
    # two liars' pushes differ from each other: never f + 1 matching.
    as_r0 = {sender: dataclasses.replace(push, replica="r0") for sender, push in inbox.items()}
    assert as_r0["r1"] != inbox["r0"] and as_r0["r2"] != inbox["r0"]
    assert inbox["r1"] != inbox["r2"]
    if cls is not TxnAck:
        # Every lie but the ack's (whose only id is ``replica``) also
        # carries the liar's id in a corrupted field.
        assert as_r0["r1"] != as_r0["r2"]
    # Accounting follows what each node sent: the MUTE node sends (and
    # counts) too, and its row of the fault table swallows the push.
    kinds = {node.replica_id: [e["kind"] for e in obs.events.events(node.replica_id)]
             for node in nodes}
    assert all(kinds[rid] == [FLIGHT_KIND[cls]] for rid in ("r0", "r1", "r2", "r3"))
    expected = 1.0 if cls is Notify else 0.0
    assert pushed_total(obs) == {"r0": expected, "r1": expected, "r2": expected, "r3": expected}


def test_the_lie_table_covers_exactly_what_a_replica_can_enqueue():
    # Every class a PEATSReplica puts on its outbox, read off the source:
    # built in place (``self._outbox.append(Cls(...))``) or handed to the
    # owner-addressed helper (``self._push_to_owner(Cls, ...)``).
    enqueued = set()
    for call in ast.walk(ast.parse(inspect.getsource(replica))):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
            continue
        target = ast.unparse(call.func)
        if target == "self._outbox.append" and isinstance(call.args[0], ast.Call):
            enqueued.add(ast.unparse(call.args[0].func))
        elif target == "self._push_to_owner":
            enqueued.add(ast.unparse(call.args[0]))
    enqueued.discard("push")  # the helper's own generic constructor call
    assert enqueued == {cls.__name__ for cls in PUSH_LIES} == {cls.__name__ for cls in HONEST}
    assert all(getattr(messages, name) in PUSH_LIES for name in enqueued)
