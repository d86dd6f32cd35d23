"""Experiment E8 — open-system scenarios on the virtual-time engine.

The paper's Section 4 claim is qualitative: an *open* Byzantine system —
many mutually-distrusting clients against one policy-enforced space — is
workable because enforcement happens at the replicas.  The scenario engine
makes the claim measurable: we drive the replicated PEATS (f = 1, 4
replicas) with concurrent generator clients under several canonical
workloads and report throughput over **virtual** time plus per-operation
latency, with and without an injected fault schedule.

Expected shape: throughput scales with the client count until the ordering
protocol's message complexity dominates; a partition window or a lying
replica perturbs latency but not correctness; all workloads complete all
correct-client operations.
"""

from benchmarks._output import emit_table
from repro.cluster import ExplicitRouting
from repro.replication import ReplicaFaultMode
from repro.sim import PartitionWindow, Scenario, run_scenario
from repro.sim.workloads import (
    consensus_storm,
    kv_readwrite,
    lock_contention,
    queue_producer_consumer,
    wildcard_probe_mix,
)


def storm_scenario(n_clients: int = 32) -> Scenario:
    return Scenario(name=f"consensus-storm-{n_clients}", clients=consensus_storm(n_clients))


def kv_scenario(n_clients: int = 32) -> Scenario:
    return Scenario(
        name=f"kv-readwrite-{n_clients}",
        clients=kv_readwrite(n_clients, ops_per_client=6, seed=3),
    )


def lock_scenario(n_clients: int = 8) -> Scenario:
    return Scenario(name=f"lock-contention-{n_clients}", clients=lock_contention(n_clients, rounds=2))


def queue_scenario(producers: int = 6, consumers: int = 6) -> Scenario:
    return Scenario(
        name=f"queue-{producers}p-{consumers}c",
        clients=queue_producer_consumer(producers, consumers, items_per_producer=4),
    )


def faulty_kv_scenario(n_clients: int = 32) -> Scenario:
    return Scenario(
        name=f"kv-faulty-{n_clients}",
        clients=kv_readwrite(n_clients, ops_per_client=6, seed=3),
        faults=(PartitionWindow(10.0, 30.0, left=[2], right=[3]),),
        replica_faults={1: ReplicaFaultMode.LYING},
    )


def _run_and_row(scenario: Scenario) -> dict:
    result = run_scenario(scenario)
    assert result.completed, f"{scenario.name}: unfinished clients"
    row = {"scenario": scenario.name, "clients": len(result.engine.runners)}
    row.update(result.metrics.summary())
    return row


def test_e8_consensus_storm(benchmark):
    row = benchmark(lambda: _run_and_row(storm_scenario()))
    emit_table([row], title="E8 — consensus storm, 32 clients (f=1)")
    assert row["failures"] == 0


def test_e8_kv_readwrite(benchmark):
    row = benchmark(lambda: _run_and_row(kv_scenario()))
    emit_table([row], title="E8 — kv read/write mix, 32 clients (f=1)")
    assert row["ops"] == 32 * 6


def test_e8_lock_contention(benchmark):
    row = benchmark(lambda: _run_and_row(lock_scenario()))
    emit_table([row], title="E8 — lock contention, 8 workers (f=1)")
    assert row["failures"] == 0


def test_e8_queue_producer_consumer(benchmark):
    row = benchmark(lambda: _run_and_row(queue_scenario()))
    emit_table([row], title="E8 — queue producers/consumers (f=1)")
    assert row["failures"] == 0


def test_e8_workload_comparison_table(benchmark):
    """Throughput/latency across all workloads, clean vs. faulted run."""

    def measure():
        rows = [
            _run_and_row(storm_scenario()),
            _run_and_row(kv_scenario()),
            _run_and_row(lock_scenario()),
            _run_and_row(queue_scenario()),
            _run_and_row(faulty_kv_scenario()),
        ]
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(
        rows,
        title="E8 — open-system scenarios on the replicated PEATS (virtual time)",
    )
    clean = next(row for row in rows if row["scenario"] == "kv-readwrite-32")
    faulty = next(row for row in rows if row["scenario"] == "kv-faulty-32")
    # Faults perturb timing/messages, never the completed-operation count.
    assert faulty["ops"] == clean["ops"]
    assert faulty["failures"] == 0


def batch_sweep_scenario(max_batch_size: int, n_clients: int = 32) -> Scenario:
    """Consensus storm under a per-message processing cost.

    ``processing_time`` models the CPU a node spends authenticating and
    handling one message — the resource PBFT batching amortises.  With
    ``max_batch_size=1`` every request is its own consensus instance (the
    PR-1 protocol); larger batches share the instance's message cost across
    all their requests.
    """
    return Scenario(
        name=f"storm-batch-{max_batch_size}",
        clients=consensus_storm(n_clients),
        max_batch_size=max_batch_size,
        checkpoint_interval=4,
        processing_time=0.05,
    )


def test_e8_batch_size_sweep(benchmark):
    """Throughput vs. batch size: the win batching + checkpointing buys."""

    def measure():
        rows = []
        for max_batch_size in (1, 2, 4, 8, 16):
            result = run_scenario(batch_sweep_scenario(max_batch_size))
            assert result.completed, f"batch={max_batch_size}: unfinished clients"
            summary = result.metrics.summary()
            rows.append(
                {
                    "max_batch_size": max_batch_size,
                    "ops": summary["ops"],
                    "virtual_ms": summary["virtual_ms"],
                    "ops_per_vsec": summary["ops_per_vsec"],
                    "latency_p50": summary["latency_p50"],
                    "latency_p95": summary["latency_p95"],
                    "messages": summary["messages"],
                    "instances": max(
                        node.last_executed for node in result.service.nodes
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(
        rows,
        title="E8 — batch-size sweep, consensus storm 32 clients "
        "(f=1, 0.05 ms/msg processing)",
    )
    single = rows[0]
    batched = [row for row in rows if row["max_batch_size"] > 1]
    # Batching amortises the per-instance protocol cost: every batched
    # configuration must beat the single-request baseline on throughput
    # and message count.
    assert all(row["ops_per_vsec"] > single["ops_per_vsec"] for row in batched)
    assert all(row["messages"] < single["messages"] for row in batched)


def shard_sweep_scenario(shards: int, n_clients: int = 64) -> Scenario:
    """Consensus storm over a sharded cluster, per-message cost held fixed.

    The workload is identical across shard counts: 64 clients racing on 4
    decision names (16 clients per race), explicit routing spreading the
    names evenly over the groups.  Every configuration pays the same
    0.1 ms per-message processing cost — the serial resource one primary
    bottlenecks on — so the sweep isolates the sharding variable: N shards
    give N primaries ordering disjoint request streams in parallel.
    """
    spread = 4
    routing = ExplicitRouting({f"DECISION-{i}": i % shards for i in range(spread)})
    return Scenario(
        name=f"storm-shards-{shards}",
        clients=consensus_storm(n_clients, spread=spread),
        shards=shards,
        routing=routing,
        max_batch_size=2,
        checkpoint_interval=8,
        processing_time=0.1,
        mean_latency=0.2,
        jitter=0.1,
        seed=11,
    )


def test_e8_shard_count_sweep(benchmark):
    """Aggregate throughput vs. shard count: the win sharding buys.

    Asserts the tentpole claim: ≥ 2.5× aggregate consensus-storm
    throughput at 4 shards vs. 1 shard under the same per-message
    processing cost, with per-shard-tagged traces that replay
    byte-identically per seed.
    """

    def measure():
        rows = []
        for shards in (1, 2, 4):
            result = run_scenario(shard_sweep_scenario(shards))
            assert result.completed, f"shards={shards}: unfinished clients"
            replay = run_scenario(shard_sweep_scenario(shards))
            # Same seed ⇒ byte-identical trace, including the shard tags —
            # and therefore identical per-shard throughput series.
            assert result.metrics.trace_text() == replay.metrics.trace_text()
            for shard in range(shards if shards > 1 else 0):
                assert result.metrics.throughput_series(shard) == replay.metrics.throughput_series(shard)
            summary = result.metrics.summary()
            per_shard = result.metrics.by_shard()
            rows.append(
                {
                    "shards": shards,
                    "ops": summary["ops"],
                    "virtual_ms": summary["virtual_ms"],
                    "ops_per_vsec": summary["ops_per_vsec"],
                    "latency_p50": summary["latency_p50"],
                    "latency_p95": summary["latency_p95"],
                    "messages": summary["messages"],
                    "min_shard_ops": min(
                        (row["ops"] for row in per_shard.values()), default=summary["ops"]
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(
        rows,
        title="E8 — shard-count sweep, consensus storm 64 clients over 4 "
        "decision names (f=1 per group, 0.1 ms/msg processing)",
    )
    baseline = rows[0]["ops_per_vsec"]
    by_count = {row["shards"]: row["ops_per_vsec"] for row in rows}
    # Sharding must pay at every step, and reach the tentpole bar at 4.
    assert by_count[2] > baseline
    assert by_count[4] >= 2.5 * baseline
    # The explicit routing balances the four races over the groups: no
    # shard sits idle in any sharded configuration.
    assert all(row["min_shard_ops"] > 0 for row in rows)


def wildcard_sweep_scenario(locality: float, shards: int = 4, n_clients: int = 32) -> Scenario:
    """Wildcard scatter-gather under a match-locality knob.

    Every configuration runs the same read mix over a 4-shard cluster;
    ``locality`` is the fraction of reads that know their tuple's name
    (routed to one group).  The remainder are wildcard-name ``rdp`` probes
    that the unified API scatter-gathers: one ``f + 1``-voted sub-request
    per replica group, so every point of lost locality multiplies that
    read's message cost by the shard count — the trajectory the sweep
    makes visible.
    """
    spread = 4
    routing = ExplicitRouting({f"ITEM-{i}": i % shards for i in range(spread)})
    return Scenario(
        name=f"wildcard-locality-{locality:.2f}",
        clients=wildcard_probe_mix(
            n_clients, spread=spread, ops_per_client=6, locality=locality, seed=5
        ),
        shards=shards,
        routing=routing,
        max_batch_size=2,
        checkpoint_interval=8,
        processing_time=0.05,
        mean_latency=0.2,
        jitter=0.1,
        seed=13,
    )


def test_e8_wildcard_scatter_sweep(benchmark):
    """Cross-shard read cost vs. match locality (the scatter-gather price).

    Asserts the PR-4 capability claim: wildcard-name probes complete on a
    4-shard cluster (no ``CrossShardError``), results replay identically
    per seed, and the message bill grows as locality drops — the cost the
    unified API makes explicit instead of refusing the operation.
    """

    def measure():
        rows = []
        for locality in (1.0, 0.5, 0.0):
            result = run_scenario(wildcard_sweep_scenario(locality))
            assert result.completed, f"locality={locality}: unfinished clients"
            replay = run_scenario(wildcard_sweep_scenario(locality))
            # Same seed ⇒ same winners, same traces: scatter-gather adds
            # no nondeterminism beyond the seeded network.
            assert result.metrics.trace_text() == replay.metrics.trace_text()
            assert result.engine.runners and all(
                runner.result == replay_runner.result
                for runner, replay_runner in zip(
                    result.engine.runners, replay.engine.runners
                )
            )
            summary = result.metrics.summary()
            rows.append(
                {
                    "locality": locality,
                    "ops": summary["ops"],
                    "virtual_ms": summary["virtual_ms"],
                    "ops_per_vsec": summary["ops_per_vsec"],
                    "latency_p50": summary["latency_p50"],
                    "latency_p95": summary["latency_p95"],
                    "messages": summary["messages"],
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(
        rows,
        title="E8 — wildcard scatter-gather sweep, 32 clients on 4 shards "
        "(f=1 per group, 0.05 ms/msg processing)",
    )
    by_locality = {row["locality"]: row for row in rows}
    # The workload size is locality-invariant: only the read *routing*
    # changes, so completed-operation counts must match across the sweep.
    assert len({row["ops"] for row in rows}) == 1
    # Every point of lost locality converts one-group reads into
    # all-groups scatters: the message bill must grow monotonically.
    assert by_locality[0.5]["messages"] > by_locality[1.0]["messages"]
    assert by_locality[0.0]["messages"] > by_locality[0.5]["messages"]


def test_e8_client_scaling_table(benchmark):
    """Throughput as the concurrent-client population grows (the open system)."""

    def measure():
        rows = []
        for n_clients in (4, 8, 16, 32):
            result = run_scenario(kv_scenario(n_clients))
            assert result.completed
            summary = result.metrics.summary()
            rows.append(
                {
                    "clients": n_clients,
                    "ops": summary["ops"],
                    "virtual_ms": summary["virtual_ms"],
                    "ops_per_vsec": summary["ops_per_vsec"],
                    "latency_p50": summary["latency_p50"],
                    "latency_p95": summary["latency_p95"],
                    "messages": summary["messages"],
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(rows, title="E8 — scaling concurrent clients (kv mix, f=1)")
    # More concurrent clients ⇒ more completed work per unit of virtual
    # time: that is precisely what the synchronous one-at-a-time client
    # could not deliver.
    throughput = [row["ops_per_vsec"] for row in rows]
    assert throughput[0] < throughput[-1]
