"""Tests for the scenario engine core: timers, async client path, runner loop."""

import pytest

from repro.cluster import ShardedPEATS
from repro.errors import OperationTimeoutError, QuorumError, SimulationError
from repro.replication import NetworkConfig, SimulatedNetwork
from repro.replication import ReplicaFaultMode
from repro.sim import (
    Op,
    Pause,
    Scenario,
    ScenarioEngine,
    SimMetrics,
    ok_value,
    op_in,
    op_out,
    op_rd,
    op_rdp,
    open_sim_policy,
    run_scenario,
)
from repro.tuples import ANY, entry, template


class TestNetworkTimers:
    def test_timer_fires_at_its_virtual_time(self):
        network = SimulatedNetwork(NetworkConfig(seed=1))
        fired = []
        network.schedule_at(25.0, lambda: fired.append(network.now))
        network.run()
        assert fired == [25.0]
        assert network.now == 25.0

    def test_timers_and_messages_interleave_in_time_order(self):
        network = SimulatedNetwork(NetworkConfig(mean_latency=5.0, jitter=0.0, seed=1))
        order = []
        network.register("n", lambda sender, payload: order.append(("msg", payload)))
        network.schedule_at(1.0, lambda: order.append(("timer", 1.0)))
        network.send("m", "n", "hello")  # delivered at t=5
        network.schedule_at(9.0, lambda: order.append(("timer", 9.0)))
        network.run()
        assert order == [("timer", 1.0), ("msg", "hello"), ("timer", 9.0)]

    def test_cancelled_timer_does_not_fire(self):
        network = SimulatedNetwork(NetworkConfig(seed=1))
        fired = []
        timer = network.schedule_after(5.0, lambda: fired.append("boom"))
        timer.cancel()
        network.run()
        assert fired == []

    def test_run_until_time_stops_exactly_at_deadline(self):
        network = SimulatedNetwork(NetworkConfig(seed=1))
        fired = []
        network.schedule_at(10.0, lambda: fired.append(10.0))
        network.schedule_at(30.0, lambda: fired.append(30.0))
        network.run_until_time(20.0)
        assert fired == [10.0]
        assert network.now == 20.0
        network.run()
        assert fired == [10.0, 30.0]

    def test_negative_delay_rejected(self):
        network = SimulatedNetwork(NetworkConfig(seed=1))
        with pytest.raises(SimulationError):
            network.schedule_after(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            network.run_for(-5.0)


class TestPendingRequests:
    def test_submit_completes_via_callback_without_blocking(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        client = service.client("c1")
        seen = []
        pending = client.submit("out", (entry("A", 1),), on_complete=lambda p: seen.append(p))
        assert not pending.done
        service.network.run_until(lambda: pending.done)
        assert seen == [pending]
        assert pending.result() == ("OK", True)
        assert pending.latency is not None and pending.latency > 0

    def test_many_requests_in_flight_concurrently(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        clients = [service.client(f"c{i}") for i in range(8)]
        pendings = [c.submit("out", (entry("A", i),)) for i, c in enumerate(clients)]
        assert all(not p.done for p in pendings)
        service.network.run_until(lambda: all(p.done for p in pendings))
        assert all(p.result() == ("OK", True) for p in pendings)
        assert len(service.snapshot()) == 8

    def test_result_raises_while_in_flight(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        pending = service.client("c1").submit("out", (entry("A", 1),))
        with pytest.raises(Exception):
            pending.result()

    def test_request_fails_with_quorum_error_after_max_retransmissions(self):
        service = ShardedPEATS(
            open_sim_policy(),
            shards=1,
            f=1,
            replica_faults={
                1: ReplicaFaultMode.LYING,
                2: ReplicaFaultMode.LYING,
                3: ReplicaFaultMode.LYING,
            },
        )
        client = service.client("c1")
        client._max_retransmissions = 2
        pending = client.submit("out", (entry("A", 1),))
        service.network.run_until(lambda: pending.done)
        assert isinstance(pending.exception, QuorumError)
        with pytest.raises(QuorumError):
            pending.result()

    def test_synchronous_invoke_still_works_on_top_of_submit(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        client = service.client("c1")
        assert client.invoke("out", (entry("A", 1),)) == ("OK", True)
        assert not client.pending_requests


class TestScenarioEngine:
    def test_programs_interleave_and_finish(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)

        def writer(i):
            def program():
                payload = yield op_out(entry("W", i))
                assert ok_value(payload) is True
                payload = yield op_rdp(template("W", ANY))
                return ok_value(payload) is not None

            return program

        for i in range(6):
            engine.add_client(f"w{i}", writer(i)())
        metrics = engine.run()
        assert not engine.unfinished_clients()
        assert not engine.failed_clients()
        assert metrics.operations_completed == 12
        assert len(service.snapshot()) == 6

    def test_pause_suspends_on_the_virtual_clock(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)
        times = []

        def program():
            yield op_out(entry("A", 1))
            times.append(service.network.now)
            yield Pause(40.0)
            times.append(service.network.now)
            yield op_out(entry("A", 2))

        engine.add_client("p", program())
        engine.run()
        assert times[1] - times[0] == pytest.approx(40.0)

    def test_blocking_read_steps_resolve_across_clients(self):
        # A program may yield rd/in steps: the engine's unified Space
        # emulates them as probe chains on the virtual clock, so a reader
        # blocks until another client's out lands — no polling loop in
        # the program itself.
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)

        def producer():
            yield Pause(60.0)
            yield op_out(entry("HANDOFF", "payload"))
            return "sent"

        def consumer():
            payload = yield op_in(template("HANDOFF", ANY), timeout=500.0)
            return ok_value(payload)

        engine.add_client("producer", producer())
        consumer_runner = engine.add_client("consumer", consumer())
        engine.run()
        assert not engine.unfinished_clients()
        assert consumer_runner.result == entry("HANDOFF", "payload")
        assert len(service.snapshot()) == 0

    def test_blocking_read_step_timeout_fails_only_that_client(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)

        def starved():
            yield op_rd(template("NEVER", ANY), timeout=30.0)

        runner = engine.add_client("starved", starved())
        engine.run()
        assert isinstance(runner.failed, OperationTimeoutError)

    def test_bad_yield_value_fails_the_client_not_the_engine(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)

        def bad():
            yield "not-a-step"

        def good():
            yield op_out(entry("A", 1))
            return True

        bad_runner = engine.add_client("bad", bad())
        good_runner = engine.add_client("good", good())
        engine.run()
        assert isinstance(bad_runner.failed, SimulationError)
        assert good_runner.failed is None and good_runner.result is True

    def test_deadline_stops_the_run_and_is_recorded(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)

        def sleeper():
            yield Pause(10_000.0)
            yield op_out(entry("A", 1))

        engine.add_client("s", sleeper())
        metrics = engine.run(deadline=100.0)
        assert engine.unfinished_clients()
        assert "deadline" in metrics.trace_text()

    def test_engine_runs_exactly_once(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()
        with pytest.raises(SimulationError):
            engine.add_client("late", iter(()))

    def test_engine_hook_fires_at_scheduled_time(self):
        service = ShardedPEATS(open_sim_policy(), shards=1, f=1)
        engine = ScenarioEngine(service)
        seen = []

        def waiter():
            yield Pause(50.0)
            return True

        engine.add_client("w", waiter())
        engine.at(20.0, lambda: seen.append(service.network.now), label="probe")
        engine.run()
        assert seen == [20.0]

    def test_unsupported_operation_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            Op("steal", ())


class TestThroughputSeries:
    def test_empty_series(self):
        metrics = SimMetrics(throughput_bucket=100.0)
        assert metrics.throughput_series() == []

    def test_single_bucket(self):
        metrics = SimMetrics(throughput_bucket=100.0)
        for now in (0.0, 10.0, 99.9):
            metrics.record_complete(now, "p", "out", 0, latency=1.0, status="OK")
        assert metrics.throughput_series() == [(0.0, 3)]

    def test_zero_timestamp_lands_in_the_first_bucket(self):
        metrics = SimMetrics(throughput_bucket=50.0)
        metrics.record_complete(0.0, "p", "out", 0, latency=0.0, status="OK")
        metrics.record_complete(50.0, "p", "out", 1, latency=0.0, status="OK")
        assert metrics.throughput_series() == [(0.0, 1), (50.0, 1)]

    def test_negative_timestamp_rejected(self):
        metrics = SimMetrics(throughput_bucket=100.0)
        with pytest.raises(ValueError):
            metrics.record_complete(-0.5, "p", "out", 0, latency=1.0, status="OK")
        assert metrics.throughput_series() == []

    def test_sparse_buckets_only_report_nonempty_windows(self):
        metrics = SimMetrics(throughput_bucket=10.0)
        metrics.record_complete(5.0, "p", "out", 0, latency=1.0, status="OK")
        metrics.record_complete(35.0, "p", "out", 1, latency=1.0, status="OK")
        assert metrics.throughput_series() == [(0.0, 1), (30.0, 1)]


class TestScenarioFacade:
    def test_run_scenario_builds_a_fresh_deployment(self):
        def program():
            yield op_out(entry("A", 1))
            return "ok"

        scenario = Scenario(name="one", clients=[("p", program)])
        result = run_scenario(scenario)
        assert result.completed
        assert result.client_results() == {"p": "ok"}
        assert result.metrics.operations_completed == 1
        assert len(result.service.snapshot()) == 1

    def test_external_metrics_instance_is_used(self):
        def program():
            yield op_out(entry("A", 1))

        metrics = SimMetrics(throughput_bucket=10.0)
        result = run_scenario(Scenario(name="m", clients=[("p", program)]), metrics=metrics)
        assert result.metrics is metrics
        assert metrics.throughput_series()
