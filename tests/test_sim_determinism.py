"""Determinism guarantees of the scenario engine.

The single source of nondeterminism in a scenario is the network's seeded
RNG (latency jitter + drops); everything else — workload RNGs, fault
timing, client programs — is derived deterministically.  Therefore:

* same ``Scenario`` (same seed) ⇒ **byte-identical** metric/trace output;
* different seeds ⇒ different latency draws ⇒ different interleavings.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.replication import ReplicaFaultMode
from repro.sim import PartitionWindow, Scenario, run_scenario
from repro.sim.workloads import consensus_storm, kv_readwrite, queue_producer_consumer


def small_scenario(seed: int, *, clients=None) -> Scenario:
    return Scenario(
        name="determinism-probe",
        clients=clients if clients is not None else kv_readwrite(6, ops_per_client=3, seed=1),
        seed=seed,
    )


class TestSameSeedSameTrace:
    def test_trace_and_metrics_are_byte_identical(self):
        first = run_scenario(small_scenario(42))
        second = run_scenario(small_scenario(42))
        assert first.metrics.trace_text() == second.metrics.trace_text()
        assert first.metrics.trace_digest() == second.metrics.trace_digest()
        assert first.metrics.summary() == second.metrics.summary()
        assert first.metrics.throughput_series() == second.metrics.throughput_series()

    def test_replay_holds_under_faults_and_byzantine_replicas(self):
        scenario = Scenario(
            name="faulty-replay",
            clients=queue_producer_consumer(3, 3, items_per_producer=2),
            faults=(PartitionWindow(5.0, 20.0, left=[2], right=[3]),),
            replica_faults={1: ReplicaFaultMode.LYING},
            seed=9,
        )
        runs = [run_scenario(scenario) for _ in range(2)]
        assert runs[0].metrics.trace_text() == runs[1].metrics.trace_text()
        assert runs[0].completed and runs[1].completed

    def test_client_results_replay_identically(self):
        scenario = small_scenario(13, clients=consensus_storm(8))
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.client_results() == second.client_results()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_any_seed_replays_byte_identically(self, seed):
        first = run_scenario(small_scenario(seed))
        second = run_scenario(small_scenario(seed))
        assert first.metrics.trace_text() == second.metrics.trace_text()


class TestDifferentSeedsDiverge:
    @settings(max_examples=5, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    def test_property_different_seeds_produce_different_interleavings(self, seeds):
        first = run_scenario(small_scenario(seeds[0]))
        second = run_scenario(small_scenario(seeds[1]))
        # Latency draws differ, so the completion interleaving (and hence
        # the trace) differs.  The *semantic* outcome still matches: all
        # operations complete.
        assert first.metrics.trace_text() != second.metrics.trace_text()
        assert first.completed and second.completed
        assert (
            first.metrics.operations_completed == second.metrics.operations_completed
        )

    def test_seed_is_the_only_knob_that_moved(self):
        base = small_scenario(1)
        other = dataclasses.replace(base, seed=2)
        assert base.network_config() != other.network_config()
        assert base.clients is other.clients
