"""The virtual-time scenario engine.

:class:`ScenarioEngine` interleaves many generator-based clients
(:mod:`repro.sim.clients`), a declarative fault schedule
(:mod:`repro.sim.faults`) and the BFT replica groups of a
:class:`~repro.cluster.service.ShardedPEATS` (one group by default) under
**one virtual clock** — the discrete-event queue of the seeded
:class:`~repro.replication.network.SimulatedNetwork`.  One call to
:meth:`ScenarioEngine.run` pumps that queue until every client program has
finished (or a deadline passes), recording everything into a
:class:`~repro.sim.metrics.SimMetrics` flight recorder.

Because every source of nondeterminism is the network's seeded RNG, a
scenario replayed with the same :class:`Scenario.seed` produces a
byte-identical trace — the property the determinism tests pin down.

The declarative entry point is :class:`Scenario` + :func:`run_scenario`::

    from repro.sim import Scenario, run_scenario
    from repro.sim.workloads import kv_readwrite
    from repro.sim.faults import PartitionWindow

    scenario = Scenario(
        name="storm",
        clients=kv_readwrite(32, ops_per_client=6),
        faults=(PartitionWindow(40.0, 120.0, left=[2], right=[3]),),
        seed=7,
    )
    result = run_scenario(scenario)
    print(result.metrics.summary())
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

from repro.api import connect
from repro.cluster.routing import RoutingPolicy
from repro.cluster.service import ShardedPEATS
from repro.errors import ReplicationError, SimulationError
from repro.policy.policy import AccessPolicy
from repro.policy.rules import Rule
from repro.replication.network import NetworkConfig
from repro.replication.adversary import ReplicaFaultMode
from repro.sim.clients import ClientProgram, ClientRunner
from repro.sim.faults import FaultEvent
from repro.sim.metrics import SimMetrics

__all__ = ["open_sim_policy", "ScenarioEngine", "Scenario", "ScenarioResult", "run_scenario"]


def open_sim_policy(name: str = "sim-open") -> AccessPolicy:
    """An allow-everything policy for workloads that stress the substrate.

    Scenario runs that study contention, fault timing or throughput (rather
    than policy enforcement) use this; pass a real policy through
    :attr:`Scenario.policy_factory` to study enforcement under load.
    """
    return AccessPolicy(
        [Rule(operation, operation) for operation in ("out", "rdp", "inp", "cas")],
        name=name,
    )


class ScenarioEngine:
    """Runs many concurrent simulated clients against one deployment.

    ``service`` is a :class:`~repro.cluster.service.ShardedPEATS` — one
    shard for the paper's single replica group, more for a sharded
    cluster.  The engine needs its ``network``, ``client(process)`` and
    ``nodes``; on several shards the client tags every sample with its
    shard, so per-shard metrics fall out of the same flight recorder.
    """

    def __init__(
        self,
        service: ShardedPEATS,
        *,
        metrics: SimMetrics | None = None,
    ) -> None:
        self.service = service
        #: The unified API handle every client program submits through —
        #: which is what lets programs yield blocking-read and wildcard
        #: scatter-gather steps regardless of the deployment shape.
        self.space = connect(service=service)
        self.metrics = metrics or SimMetrics()
        self._runners: list[ClientRunner] = []
        self._fault_events: list[FaultEvent] = []
        self._unfinished = 0
        self._ran = False

    @property
    def network(self):
        return self.service.network

    @property
    def runners(self) -> tuple[ClientRunner, ...]:
        return tuple(self._runners)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def add_client(self, process: Hashable, program: ClientProgram) -> ClientRunner:
        """Register a client program to run as ``process``."""
        if self._ran:
            raise SimulationError("cannot add clients after the scenario ran")
        runner = ClientRunner(self, process, program)
        self._runners.append(runner)
        self._unfinished += 1
        return runner

    def add_faults(self, *events: FaultEvent) -> None:
        if self._ran:
            raise SimulationError("cannot add faults after the scenario ran")
        self._fault_events.extend(events)

    def at(self, when: float, callback: Callable[[], None], *, label: str = "hook") -> None:
        """Schedule an arbitrary engine hook at virtual time ``when``."""

        def fire() -> None:
            self.metrics.record_event(self.network.now, "hook", label)
            callback()

        self.network.schedule_at(when, fire)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _client_finished(self, runner: ClientRunner) -> None:
        self._unfinished -= 1

    def unfinished_clients(self) -> tuple[ClientRunner, ...]:
        return tuple(runner for runner in self._runners if not runner.done)

    def failed_clients(self) -> tuple[ClientRunner, ...]:
        return tuple(runner for runner in self._runners if runner.failed is not None)

    def run(
        self,
        *,
        deadline: float | None = None,
        max_events: int = 5_000_000,
    ) -> SimMetrics:
        """Pump the virtual clock until every client finished.

        Stops early when ``deadline`` (virtual ms) passes or when the event
        queue drains with clients still waiting (a stuck program — recorded
        in the trace, inspectable via :meth:`unfinished_clients`).  Returns
        the scenario's :class:`~repro.sim.metrics.SimMetrics`.
        """
        if self._ran:
            raise SimulationError("a ScenarioEngine instance runs exactly once")
        self._ran = True
        network = self.network
        self.metrics.start_run(network.now)
        for event in self._fault_events:
            event.schedule(self)
        for runner in self._runners:
            runner.start()
        events = 0
        while self._unfinished > 0:
            next_time = network.next_event_time
            if next_time is None:
                self.metrics.record_event(
                    network.now, "stuck", f"{self._unfinished} clients waiting, queue empty"
                )
                break
            if deadline is not None and next_time > deadline:
                # The run is cut off at the deadline, so the measured window
                # (and every rate derived from it) must end there too.
                if deadline > network.now:
                    network.advance_time(deadline - network.now)
                self.metrics.record_event(
                    network.now, "deadline", f"{self._unfinished} clients unfinished"
                )
                break
            network.step()
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"scenario did not finish within {max_events} events (livelock?)"
                )
        self.metrics.finish_run(network.now, network.statistics)
        return self.metrics

    def __repr__(self) -> str:
        return (
            f"ScenarioEngine(clients={len(self._runners)}, "
            f"faults={len(self._fault_events)}, ran={self._ran})"
        )


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A complete, replayable scenario description.

    ``clients`` maps process names to zero-argument *program factories*
    (so a scenario can be run several times, each run consuming fresh
    generators — which is what the replay/determinism checks do).
    """

    name: str
    clients: Sequence[tuple[Hashable, Callable[[], ClientProgram]]]
    faults: Sequence[FaultEvent] = ()
    policy_factory: Callable[[], AccessPolicy] = open_sim_policy
    f: int = 1
    seed: int = 42
    mean_latency: float = 1.0
    jitter: float = 0.5
    drop_probability: float = 0.0
    #: Per-message processing cost at each node (0 = latency-only model).
    processing_time: float = 0.0
    #: ``None`` takes the transport's (50 virtual ms on the simulation).
    view_change_timeout: Optional[float] = None
    #: Requests the primary may pack into one consensus instance.
    max_batch_size: int = 8
    #: Sequence numbers between checkpoints (log-truncation cadence).
    checkpoint_interval: int = 8
    replica_faults: Mapping[Any, ReplicaFaultMode] = dataclasses.field(default_factory=dict)
    #: Number of independent replica groups the tuple space is sharded
    #: over.  ``1`` (the default) runs the classic single-group deployment;
    #: anything higher shards it, and every group shares this scenario's
    #: seed, clock and fault schedule.  ``replica_faults`` keys may be
    #: ``(shard, index)`` pairs or flat node indexes.
    shards: int = 1
    #: Routing policy for the sharded cluster (None = hash routing).
    routing: Optional[RoutingPolicy] = None
    deadline: Optional[float] = None
    #: An :class:`~repro.obs.Observability` bundle to instrument the run
    #: with (``None`` = the zero-cost null bundle).  Purely passive —
    #: attaching one must not change the trace digest of a seeded run.
    obs: Any = None

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            mean_latency=self.mean_latency,
            jitter=self.jitter,
            drop_probability=self.drop_probability,
            seed=self.seed,
            processing_time=self.processing_time,
        )


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """What one :func:`run_scenario` call produced."""

    scenario: Scenario
    service: ShardedPEATS
    engine: ScenarioEngine
    metrics: SimMetrics

    @property
    def completed(self) -> bool:
        """True when every client program ran to completion."""
        return not self.engine.unfinished_clients() and not self.engine.failed_clients()

    def client_results(self) -> dict[Hashable, Any]:
        return {runner.process: runner.result for runner in self.engine.runners}


def run_scenario(scenario: Scenario, *, metrics: SimMetrics | None = None) -> ScenarioResult:
    """Build a fresh deployment for ``scenario`` and run it to completion.

    The deployment is a :class:`~repro.cluster.service.ShardedPEATS` of
    ``scenario.shards`` groups (one by default); the same seed yields a
    byte-identical trace, with every sample of a sharded run tagged by its
    owning shard.  A misconfiguration (a fault key outside the cluster, a
    routing policy that does not fit) is a :class:`SimulationError`.
    """
    try:
        service = ShardedPEATS(
            scenario.policy_factory(),
            shards=scenario.shards,
            routing=scenario.routing,
            f=scenario.f,
            network_config=scenario.network_config(),
            replica_faults=dict(scenario.replica_faults),
            view_change_timeout=scenario.view_change_timeout,
            max_batch_size=scenario.max_batch_size,
            checkpoint_interval=scenario.checkpoint_interval,
            obs=scenario.obs,
        )
    except ReplicationError as error:
        raise SimulationError(f"scenario {scenario.name!r}: {error}") from error
    engine = ScenarioEngine(service, metrics=metrics)
    for process, factory in scenario.clients:
        engine.add_client(process, factory())
    engine.add_faults(*scenario.faults)
    engine.run(deadline=scenario.deadline)
    return ScenarioResult(scenario=scenario, service=service, engine=engine, metrics=engine.metrics)
