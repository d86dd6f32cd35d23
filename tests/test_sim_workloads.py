"""Workload invariants and fault-schedule behaviour under the scenario engine."""

import dataclasses

import pytest

from repro.replication import ReplicaFaultMode
from repro.sim import (
    CrashWindow,
    FaultModeWindow,
    PartitionWindow,
    Scenario,
    ViewChangeStorm,
    run_scenario,
)
from repro.sim.workloads import (
    barrier_rendezvous,
    consensus_storm,
    kv_readwrite,
    lock_contention,
    queue_producer_consumer,
)


def names_in(snapshot, name):
    return [stored for stored in snapshot if stored.fields[0] == name]


class TestWorkloads:
    def test_consensus_storm_agrees_on_one_value(self):
        result = run_scenario(Scenario(name="storm", clients=consensus_storm(12)))
        assert result.completed
        decisions = set(result.client_results().values())
        assert len(decisions) == 1
        assert len(names_in(result.service.snapshot(), "DECISION")) == 1

    def test_lock_contention_preserves_mutual_exclusion_accounting(self):
        n, rounds = 6, 2
        result = run_scenario(
            Scenario(name="lock", clients=lock_contention(n, rounds=rounds))
        )
        assert result.completed
        snapshot = result.service.snapshot()
        # Every worker completed every round, and the token was returned.
        assert len(names_in(snapshot, "HELD")) == n * rounds
        assert len(names_in(snapshot, "LOCK")) == 1
        workers = {k: v for k, v in result.client_results().items() if k.startswith("worker")}
        assert all(value == ("done", rounds) for value in workers.values())

    def test_barrier_rendezvous_everyone_sees_everyone(self):
        n = 5
        result = run_scenario(Scenario(name="barrier", clients=barrier_rendezvous(n)))
        assert result.completed
        assert all(value == ("through", n) for value in result.client_results().values())

    def test_kv_readwrite_all_operations_complete(self):
        n, ops = 10, 6
        result = run_scenario(
            Scenario(name="kv", clients=kv_readwrite(n, ops_per_client=ops, seed=5))
        )
        assert result.completed
        assert result.metrics.operations_completed == n * ops
        reads = sum(v[1] for v in result.client_results().values())
        writes = sum(v[2] for v in result.client_results().values())
        assert reads + writes == n * ops
        assert len(names_in(result.service.snapshot(), "KV")) == writes

    def test_queue_conserves_jobs(self):
        producers, consumers, items = 4, 3, 5
        result = run_scenario(
            Scenario(
                name="queue",
                clients=queue_producer_consumer(
                    producers, consumers, items_per_producer=items
                ),
            )
        )
        assert result.completed
        consumed = sum(
            value[1]
            for process, value in result.client_results().items()
            if str(process).startswith("cons")
        )
        assert consumed == producers * items
        assert not names_in(result.service.snapshot(), "JOB")


class TestFaultSchedules:
    def test_partition_window_drops_traffic_then_heals(self):
        # The window must close while clients are still running: the engine
        # stops pumping once every program finished, so a heal scheduled
        # after the last completion would never make it into the trace.
        scenario = Scenario(
            name="partition",
            clients=kv_readwrite(8, ops_per_client=4),
            faults=(PartitionWindow(5.0, 15.0, left=[2], right=[3]),),
        )
        result = run_scenario(scenario)
        assert result.completed
        stats = result.service.network.statistics
        assert stats["dropped"] > 0
        assert "partition" in result.metrics.trace_text()
        assert "heal" in result.metrics.trace_text()

    def test_crashed_primary_recovers_liveness_through_view_change(self):
        # The primary crashes before it orders a single cas: the reads that
        # follow take the read-only lane and need no primary, so it is the
        # writes that must wait for the view change.
        result = run_scenario(
            Scenario(
                name="crash",
                clients=consensus_storm(8),
                faults=(CrashWindow(0, 0.5, 500.0),),
                view_change_timeout=40.0,
            )
        )
        assert result.completed
        assert all(node.view >= 1 for node in result.service.correct_nodes())

    def test_lying_replica_window_is_outvoted(self):
        result = run_scenario(
            Scenario(
                name="lying",
                clients=kv_readwrite(8, ops_per_client=4),
                faults=(FaultModeWindow(1, ReplicaFaultMode.LYING, 0.0, 200.0),),
            )
        )
        assert result.completed
        assert result.metrics.failures == 0

    def test_storm_during_partition_escalates_past_unreachable_primary(self):
        """Regression: a view change whose designated primary is partitioned
        away used to wedge the replicas in ``_view_changing`` forever,
        starving every later request.  The escalation path (re-vote for the
        next view after another timeout) must rotate past it."""
        result = run_scenario(
            Scenario(
                name="harsh",
                clients=queue_producer_consumer(5, 5, items_per_producer=4),
                faults=(
                    PartitionWindow(5.0, 90.0, left=[2], right=[3]),
                    ViewChangeStorm(8.0, rounds=5, gap=15.0),
                ),
                seed=77,
            )
        )
        assert result.completed
        assert result.metrics.failures == 0
        consumed = sum(
            value[1]
            for process, value in result.client_results().items()
            if str(process).startswith("cons")
        )
        assert consumed == 20

    def test_view_change_storm_advances_views_without_losing_operations(self):
        result = run_scenario(
            Scenario(
                name="vcs",
                clients=queue_producer_consumer(3, 3, items_per_producer=2),
                faults=(ViewChangeStorm(10.0, rounds=3, gap=30.0),),
            )
        )
        assert result.completed
        assert all(node.view >= 1 for node in result.service.correct_nodes())
        consumed = sum(
            value[1]
            for process, value in result.client_results().items()
            if str(process).startswith("cons")
        )
        assert consumed == 6


class TestAcceptanceScenario:
    """The ISSUE acceptance bar: 32 concurrent clients, f=1, faults, replay."""

    @staticmethod
    def acceptance_scenario(seed=11):
        return Scenario(
            name="open-system-storm",
            clients=kv_readwrite(32, ops_per_client=6, seed=3),
            faults=(PartitionWindow(30.0, 120.0, left=[2], right=[3]),),
            replica_faults={1: ReplicaFaultMode.LYING},
            seed=seed,
        )

    def test_32_clients_with_faults_complete_all_operations(self):
        result = run_scenario(self.acceptance_scenario())
        assert len(result.engine.runners) == 32
        assert result.completed
        assert result.metrics.operations_completed == 32 * 6
        assert result.metrics.failures == 0
        # Correct replicas stayed in agreement despite the liar + partition.
        digests = result.service.replica_state_digests()
        correct = [
            digests[node.replica_id] for node in result.service.correct_nodes()
            if node.last_executed == max(n.last_executed for n in result.service.correct_nodes())
        ]
        assert len(set(correct)) == 1

    def test_acceptance_scenario_replays_byte_identically(self):
        first = run_scenario(self.acceptance_scenario())
        second = run_scenario(self.acceptance_scenario())
        assert first.metrics.trace_text() == second.metrics.trace_text()
        assert first.metrics.trace_digest() == second.metrics.trace_digest()

    def test_different_seed_changes_the_interleaving(self):
        first = run_scenario(self.acceptance_scenario(seed=11))
        other = run_scenario(self.acceptance_scenario(seed=12))
        assert first.metrics.trace_text() != other.metrics.trace_text()
