"""End-to-end tests for the sharded PEATS cluster.

Covers the tentpole properties: operations route to the owning replica
group and nowhere else (isolation), the groups coexist on one network
without cross-talk, wildcard-name templates are rejected as cross-shard by
the routing client (and scatter-gathered by the Space above it), sharded scenarios replay deterministically with per-shard-tagged metrics,
faults can target a single shard, and a crash on one shard leaves the
other shard's throughput untouched.
"""

import pytest

from repro.api import connect
from repro.cluster import ExplicitRouting, ShardedPEATS
from repro.errors import CrossShardError, ReplicationError
from repro.replication import ReplicaFaultMode, fault_of
from repro.sim import (
    CrashWindow,
    Scenario,
    ViewChangeStorm,
    open_sim_policy,
    run_scenario,
)
from repro.sim.workloads import multi_shard_kv, write_burst
from repro.tuples import ANY, Formal, entry, template


def two_shard_cluster(**kwargs):
    routing = ExplicitRouting({"KV-0": 0, "KV-1": 1, "A": 0, "B": 1})
    return ShardedPEATS(open_sim_policy(), shards=2, routing=routing, f=1, **kwargs)


class TestShardedService:
    def test_operations_land_on_the_owning_group_only(self):
        cluster = two_shard_cluster()
        view = connect(service=cluster).bind("p1")
        assert view.out(entry("A", 1)) is True
        assert view.out(entry("B", 2)) is True
        # Each group's replicas hold exactly their shard's tuples.
        for node in cluster.group(0).nodes:
            assert [e.fields[0] for e in node.application.space.snapshot()] == ["A"]
        for node in cluster.group(1).nodes:
            assert [e.fields[0] for e in node.application.space.snapshot()] == ["B"]
        # The cluster snapshot is the union, in shard order.
        assert [e.fields[0] for e in cluster.snapshot()] == ["A", "B"]

    def test_reads_and_cas_route_with_the_writes(self):
        cluster = two_shard_cluster()
        view = connect(service=cluster).bind("p1")
        view.out(entry("B", 7))
        assert view.rdp(template("B", Formal("x"))).fields[1] == 7
        inserted, existing = view.cas(template("A", Formal("d")), entry("A", 1))
        assert inserted is True and existing is None
        assert view.inp(template("B", ANY)).fields[1] == 7
        assert view.rdp(template("B", ANY)) is None

    def test_blocking_read_works_within_a_shard(self):
        cluster = two_shard_cluster()
        producer = connect(service=cluster).bind("writer")
        consumer = connect(service=cluster).bind("reader")
        producer.out(entry("A", "ready"))
        assert consumer.rd(template("A", ANY), timeout=200.0).fields[1] == "ready"
        with pytest.raises(TimeoutError):
            consumer.in_(template("B", ANY), timeout=30.0)

    def test_wildcard_name_is_rejected_as_cross_shard(self):
        # The routing client is where a wildcard name is a CrossShardError;
        # the Space above it scatter-gathers those forms by design.
        cluster = two_shard_cluster()
        client = cluster.client("p1")
        with pytest.raises(CrossShardError):
            client.submit("rdp", (template(ANY, 1),))
        with pytest.raises(CrossShardError):
            client.submit("inp", (template(Formal("name"), ANY),))
        with pytest.raises(CrossShardError):
            client.submit("cas", (template(ANY, ANY), entry("A", 1)))
        view = connect(service=cluster).bind("p1")
        view.out(entry("B", 1))
        assert view.rdp(template(ANY, 1)) == entry("B", 1)

    def test_groups_do_not_cross_talk(self):
        # Both groups order traffic concurrently on one network; replica
        # ids are namespaced per shard, every group multicasts only within
        # itself, and each group's correct replicas converge on their own
        # state digest — tuples never leak between groups.
        cluster = two_shard_cluster()
        view = connect(service=cluster).bind("p1")
        for i in range(6):
            view.out(entry("A", i))
            view.out(entry("B", i))
        for group in cluster.groups:
            digests = {node.application.state_digest() for node in group.nodes}
            assert len(digests) == 1
        digest_a = cluster.group(0).nodes[0].application.state_digest()
        digest_b = cluster.group(1).nodes[0].application.state_digest()
        assert digest_a != digest_b
        assert len(cluster.replica_ids) == 8
        assert len(set(cluster.replica_ids)) == 8
        assert all(":" in rid for rid in cluster.replica_ids)

    def test_per_shard_replica_faults_are_tolerated(self):
        # A lying replica on shard 1 (addressed by (shard, index)) is
        # outvoted by that group's f + 1 matching replies; shard 0 keyed
        # flat (index 1 of group 0) stays crashed without hurting safety.
        cluster = two_shard_cluster(
            replica_faults={(1, 2): ReplicaFaultMode.LYING, 1: ReplicaFaultMode.CRASHED}
        )
        assert fault_of(cluster.group(1).nodes[2]) is ReplicaFaultMode.LYING
        assert fault_of(cluster.group(0).nodes[1]) is ReplicaFaultMode.CRASHED
        view = connect(service=cluster).bind("p1")
        assert view.out(entry("A", 1)) is True
        assert view.out(entry("B", 2)) is True
        assert view.rdp(template("B", ANY)).fields[1] == 2

    def test_replicas_of_other_shards_cannot_vote_on_a_reply(self):
        # The cluster tolerates f Byzantine replicas *per group*; if
        # off-group replicas could vote on a request's reply, two liars
        # from different groups could pool fabricated replies into an
        # f + 1 quorum for a result the owning group never executed.
        cluster = two_shard_cluster()
        client = cluster.client("p1")
        pending = client.submit("out", (entry("A", 1),))
        from repro.replication.crypto import digest
        from repro.replication.messages import ClientReply

        forged_result = ("OK", "forged")
        for replica in cluster.group(1).replica_ids[:2]:
            cluster.network.send(
                replica,
                "p1",
                ClientReply(
                    replica=replica,
                    view=0,
                    request_key=pending.request.key,
                    result_digest=digest(forged_result),
                    result=forged_result,
                ),
            )
        # The forged replies arrive well before the owning group finishes
        # its three ordering phases; were they counted, the vote would
        # resolve to the forged result first.
        cluster.network.run_until(lambda: pending.done)
        assert pending.done
        assert pending.result() == ("OK", True)  # the genuine group's answer

    def test_invalid_configurations_are_rejected(self):
        with pytest.raises(ReplicationError):
            ShardedPEATS(open_sim_policy(), shards=0)
        with pytest.raises(ReplicationError):
            two_shard_cluster(replica_faults={(2, 0): ReplicaFaultMode.CRASHED})
        with pytest.raises(ReplicationError):
            two_shard_cluster(replica_faults={9: ReplicaFaultMode.CRASHED})
        with pytest.raises(ReplicationError):
            cluster = two_shard_cluster()
            cluster.group(5)


def sharded_scenario(seed=9, faults=(), locality=1.0, replica_faults={}):
    return Scenario(
        name="sharded-kv",
        clients=multi_shard_kv(12, shards=2, ops_per_client=6, locality=locality, seed=2),
        shards=2,
        routing=ExplicitRouting({"KV-0": 0, "KV-1": 1}),
        faults=tuple(faults),
        replica_faults=dict(replica_faults),
        seed=seed,
    )


class TestShardedScenarios:
    def test_tuple_fault_keys_work_at_one_shard_too(self):
        # A shard sweep reuses one fault spec across shard counts: the
        # (0, index) form must hit the same replica when the scenario
        # deploys a single group instead of being silently dropped.
        scenario = Scenario(
            name="flat-faults",
            clients=multi_shard_kv(4, shards=1, ops_per_client=2, seed=2),
            shards=1,
            replica_faults={(0, 2): ReplicaFaultMode.CRASHED},
            seed=3,
        )
        result = run_scenario(scenario)
        assert result.completed
        assert fault_of(result.service.nodes[2]) is ReplicaFaultMode.CRASHED
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            run_scenario(
                Scenario(
                    name="bad-shard-key",
                    clients=multi_shard_kv(2, shards=1, ops_per_client=1, seed=2),
                    shards=1,
                    replica_faults={(1, 0): ReplicaFaultMode.CRASHED},
                    seed=3,
                )
            )

    def test_sharded_scenario_completes_with_shard_tagged_metrics(self):
        result = run_scenario(sharded_scenario())
        assert result.completed
        assert result.metrics.operations_completed == 72
        by_shard = result.metrics.by_shard()
        assert set(by_shard) == {0, 1}
        assert sum(row["ops"] for row in by_shard.values()) == 72
        # With locality 1.0, half the clients live on each shard.
        assert by_shard[0]["ops"] == by_shard[1]["ops"] == 36
        # The shard filter partitions the aggregate series exactly.
        total = sum(count for _, count in result.metrics.throughput_series())
        split = sum(
            count
            for shard in (0, 1)
            for _, count in result.metrics.throughput_series(shard)
        )
        assert total == split == 72

    def test_sharded_scenario_replays_byte_identically(self):
        first = run_scenario(sharded_scenario(seed=21, locality=0.7))
        second = run_scenario(sharded_scenario(seed=21, locality=0.7))
        assert first.metrics.trace_text() == second.metrics.trace_text()
        assert first.metrics.by_shard() == second.metrics.by_shard()
        third = run_scenario(sharded_scenario(seed=22, locality=0.7))
        assert first.metrics.trace_text() != third.metrics.trace_text()

    def test_view_change_storm_can_target_one_shard(self):
        result = run_scenario(
            Scenario(
                name="storm-one-shard",
                clients=write_burst(8, ops_per_client=4, spread=2),
                shards=2,
                routing=ExplicitRouting({"BURST-0": 0, "BURST-1": 1}),
                faults=(ViewChangeStorm(start=4.0, rounds=1, shard=0),),
                seed=13,
            )
        )
        assert result.completed
        views_0 = {node.view for node in result.service.group(0).nodes}
        views_1 = {node.view for node in result.service.group(1).nodes}
        assert views_0 == {1}
        assert views_1 == {0}

    def test_crash_on_one_shard_leaves_the_other_unaffected(self):
        # Crash shard 0's primary mid-run: shard 0 rides out a view change
        # (its stalled operations take at least the view-change timeout),
        # while shard 1 — its own group, its own primary — never notices.
        crash = CrashWindow(replica=0, shard=0, start=2.0)
        result = run_scenario(
            Scenario(
                name="crash-shard-0",
                clients=multi_shard_kv(12, shards=2, ops_per_client=6, locality=1.0, seed=2),
                shards=2,
                routing=ExplicitRouting({"KV-0": 0, "KV-1": 1}),
                faults=(crash,),
                view_change_timeout=50.0,
                seed=9,
            )
        )
        assert result.completed
        by_shard = result.metrics.by_shard()
        assert by_shard[0]["ops"] == by_shard[1]["ops"] == 36
        # Shard 0 paid for the primary failure...
        assert by_shard[0]["latency_max"] > 50.0
        assert result.service.group(0).nodes[1].view >= 1
        # ...and shard 1 stayed on its primary with sub-timeout latencies.
        assert by_shard[1]["latency_max"] < 50.0
        assert all(node.view == 0 for node in result.service.group(1).nodes)
