"""Tests for the replica application (tuple space + interceptor)."""

from repro.policy import strong_consensus_policy, weak_consensus_policy
from repro.replication.messages import ClientRequest
from repro.replication.replica import DENIED, PEATSReplica
from repro.tspace import AugmentedTupleSpace
from repro.tuples import ANY, Formal, entry, template


def request(client, request_id, operation, *arguments):
    return ClientRequest(
        client=client, request_id=request_id, operation=operation, arguments=tuple(arguments)
    )


class TestExecution:
    def test_allowed_operation_executes(self):
        replica = PEATSReplica("r0", strong_consensus_policy(range(4), 1))
        status, value = replica.execute(request(0, 0, "out", entry("PROPOSE", 0, 1)))
        assert status == "OK" and value is True
        assert entry("PROPOSE", 0, 1) in replica.space

    def test_denied_operation_is_reported_and_has_no_effect(self):
        replica = PEATSReplica("r0", strong_consensus_policy(range(4), 1))
        status, reason = replica.execute(request(0, 0, "out", entry("PROPOSE", 1, 1)))
        assert status == DENIED
        assert "deny" in reason.lower() or "denied" in reason.lower() or "no rule" in reason.lower()
        assert len(replica.space.snapshot()) == 0

    def test_unsupported_operation_denied(self):
        replica = PEATSReplica("r0", weak_consensus_policy())
        status, _ = replica.execute(request("c", 0, "format_disk"))
        assert status == DENIED

    def test_rdp_and_cas_round_trip(self):
        replica = PEATSReplica("r0", strong_consensus_policy(range(4), 1))
        replica.execute(request(0, 0, "out", entry("PROPOSE", 0, 1)))
        replica.execute(request(1, 0, "out", entry("PROPOSE", 1, 1)))
        status, value = replica.execute(
            request(2, 0, "rdp", template("PROPOSE", 0, Formal("v")))
        )
        assert status == "OK" and value == entry("PROPOSE", 0, 1)
        status, (inserted, existing) = replica.execute(
            request(
                2,
                1,
                "cas",
                template("DECISION", Formal("d"), ANY),
                entry("DECISION", 1, frozenset({0, 1})),
            )
        )
        assert status == "OK" and inserted is True and existing is None

    def test_request_execution_is_idempotent(self):
        replica = PEATSReplica("r0", strong_consensus_policy(range(4), 1))
        first = replica.execute(request(0, 7, "out", entry("PROPOSE", 0, 1)))
        second = replica.execute(request(0, 7, "out", entry("PROPOSE", 0, 1)))
        assert first == second
        assert len(replica.space.snapshot()) == 1

    def test_determinism_across_replicas(self):
        requests = [
            request(0, 0, "out", entry("PROPOSE", 0, 1)),
            request(1, 0, "out", entry("PROPOSE", 1, 1)),
            request(1, 1, "rdp", template("PROPOSE", ANY, Formal("v"))),
            request(
                0,
                1,
                "cas",
                template("DECISION", Formal("d"), ANY),
                entry("DECISION", 1, frozenset({0, 1})),
            ),
        ]
        replicas = [
            PEATSReplica(f"r{i}", strong_consensus_policy(range(4), 1)) for i in range(4)
        ]
        results = []
        for replica in replicas:
            results.append(tuple(replica.execute(r) for r in requests))
        assert len(set(results)) == 1
        assert len({replica.state_digest() for replica in replicas}) == 1

    def test_state_digest_differs_when_states_diverge(self):
        a = PEATSReplica("a", strong_consensus_policy(range(4), 1))
        b = PEATSReplica("b", strong_consensus_policy(range(4), 1))
        a.execute(request(0, 0, "out", entry("PROPOSE", 0, 1)))
        assert a.state_digest() != b.state_digest()

    def test_repr_does_not_copy_the_space(self, count_calls):
        replica = PEATSReplica("r0", strong_consensus_policy(range(4), 1))
        for process in range(4):
            replica.execute(request(process, 0, "out", entry("PROPOSE", process, 1)))
        snapshots = count_calls(AugmentedTupleSpace, "snapshot")
        assert repr(replica) == "PEATSReplica(id='r0', tuples=4)"
        assert snapshots == []
