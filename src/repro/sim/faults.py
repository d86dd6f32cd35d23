"""Declarative timed fault schedules for scenario runs.

A fault schedule is a sequence of small frozen dataclasses, each saying
*what* happens to the deployment and *when* (in virtual milliseconds).
The engine installs them as network timers before the run starts, so the
same schedule against the same seed perturbs the exact same interleaving —
fault timing is part of the deterministic trace.

Available events:

* :class:`PartitionWindow` — cut every link between two groups of nodes
  for a window of virtual time, then heal;
* :class:`CrashWindow` — crash a replica at ``start`` and (optionally)
  recover it at ``end``.  A recovered replica has missed the traffic of
  the window; once it learns a stable checkpoint it fetches the
  certified state (plus the in-window committed/prepared tail) from its
  peers and rejoins at the group's tip;
* :class:`FaultModeWindow` — toggle any
  :class:`~repro.replication.adversary.ReplicaFaultMode` (e.g. ``LYING``)
  on a replica for a window;
* :class:`ViewChangeStorm` — force the correct replicas to vote out the
  primary ``rounds`` times, ``gap`` ms apart (the churn a flaky timeout
  configuration produces).

Crashes and modes are written to the replica's row of its transport's
fault table (:func:`~repro.replication.adversary.set_fault`); the ordering
node itself never learns it is faulty.

Replicas are named by index (into ``service.nodes``) or by replica id;
partition endpoints may also name client processes.

Sharded deployments (:class:`~repro.cluster.ShardedPEATS`) add per-shard
targeting: every event takes an optional ``shard`` — integer replica
indexes then count *within* that shard's replica group (``CrashWindow(
replica=0, shard=1, ...)`` crashes shard 1's initial primary), and a
:class:`ViewChangeStorm` with a shard blows through that one group while
the others keep ordering undisturbed.  Without ``shard``, integer indexes
address ``service.nodes`` flat (shard ``i // (3f + 1)``), and a storm
hits every group.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Sequence, Union

from repro.errors import SimulationError
from repro.replication.adversary import ReplicaFaultMode, fault_of, set_fault
from repro.replication.pbft import OrderingNode

__all__ = [
    "FaultEvent",
    "PartitionWindow",
    "CrashWindow",
    "FaultModeWindow",
    "ViewChangeStorm",
]


class FaultEvent:
    """Base class: every fault event installs itself onto an engine."""

    def schedule(self, engine: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError


def _shard_nodes(engine: Any, shard: Union[int, None]) -> tuple[OrderingNode, ...]:
    """The node pool an event addresses: one shard's group, or everything."""
    if shard is None:
        return tuple(engine.service.nodes)
    groups = engine.service.groups
    if not 0 <= shard < len(groups):
        raise SimulationError(f"no shard {shard} in this cluster")
    return tuple(groups[shard].nodes)


def _resolve_node(
    engine: Any, replica: Union[int, Hashable], shard: Union[int, None] = None
) -> OrderingNode:
    nodes = _shard_nodes(engine, shard)
    if isinstance(replica, int) and not isinstance(replica, bool):
        if not 0 <= replica < len(nodes):
            raise SimulationError(f"no replica with index {replica}")
        return nodes[replica]
    for node in nodes:
        if node.replica_id == replica:
            return node
    raise SimulationError(f"no replica named {replica!r}")


def _resolve_endpoint(
    engine: Any, endpoint: Union[int, Hashable], shard: Union[int, None] = None
) -> Hashable:
    """A partition endpoint: replica index / replica id / client process."""
    if isinstance(endpoint, int) and not isinstance(endpoint, bool):
        return _resolve_node(engine, endpoint, shard).replica_id
    return endpoint


@dataclasses.dataclass(frozen=True)
class PartitionWindow(FaultEvent):
    """Cut all links between ``left`` and ``right`` during [start, end)."""

    start: float
    end: float
    left: Sequence[Union[int, Hashable]]
    right: Sequence[Union[int, Hashable]]
    #: Scope integer endpoint indexes to one shard's replica group.
    shard: Union[int, None] = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError("partition window must end after it starts")

    def schedule(self, engine: Any) -> None:
        network = engine.network

        def pairs():
            for a in self.left:
                for b in self.right:
                    yield (
                        _resolve_endpoint(engine, a, self.shard),
                        _resolve_endpoint(engine, b, self.shard),
                    )

        def open_window() -> None:
            for a, b in pairs():
                network.partition(a, b)
            engine.metrics.record_event(
                network.now, "fault", f"partition {list(self.left)}|{list(self.right)}"
            )

        def close_window() -> None:
            for a, b in pairs():
                network.heal(a, b)
            engine.metrics.record_event(
                network.now, "fault", f"heal {list(self.left)}|{list(self.right)}"
            )

        network.schedule_at(self.start, open_window)
        network.schedule_at(self.end, close_window)


@dataclasses.dataclass(frozen=True)
class CrashWindow(FaultEvent):
    """Crash a replica at ``start``; recover it at ``end`` (None = never)."""

    replica: Union[int, Hashable]
    start: float
    end: Union[float, None] = None
    #: Scope an integer replica index to one shard's replica group.
    shard: Union[int, None] = None

    def __post_init__(self) -> None:
        if self.end is not None and self.end <= self.start:
            raise SimulationError("crash window must end after it starts")

    def schedule(self, engine: Any) -> None:
        network = engine.network
        node = _resolve_node(engine, self.replica, self.shard)
        # Recovery restores whatever mode the replica had before the crash
        # (e.g. a LYING replica configured via Scenario.replica_faults must
        # resume lying, not silently turn correct).
        before_crash: list[ReplicaFaultMode] = [ReplicaFaultMode.CORRECT]

        def crash() -> None:
            before_crash[0] = fault_of(node)
            set_fault(node, ReplicaFaultMode.CRASHED)
            engine.metrics.record_event(network.now, "fault", f"crash {node.replica_id}")

        def recover() -> None:
            set_fault(node, before_crash[0])
            engine.metrics.record_event(
                network.now, "fault", f"recover {node.replica_id}={before_crash[0].value}"
            )

        network.schedule_at(self.start, crash)
        if self.end is not None:
            network.schedule_at(self.end, recover)


@dataclasses.dataclass(frozen=True)
class FaultModeWindow(FaultEvent):
    """Put a replica in an arbitrary fault mode for [start, end)."""

    replica: Union[int, Hashable]
    mode: ReplicaFaultMode
    start: float
    end: Union[float, None] = None
    restore: ReplicaFaultMode = ReplicaFaultMode.CORRECT
    #: Scope an integer replica index to one shard's replica group.
    shard: Union[int, None] = None

    def schedule(self, engine: Any) -> None:
        network = engine.network
        node = _resolve_node(engine, self.replica, self.shard)

        def enable() -> None:
            set_fault(node, self.mode)
            engine.metrics.record_event(
                network.now, "fault", f"mode {node.replica_id}={self.mode.value}"
            )

        def disable() -> None:
            set_fault(node, self.restore)
            engine.metrics.record_event(
                network.now, "fault", f"mode {node.replica_id}={self.restore.value}"
            )

        network.schedule_at(self.start, enable)
        if self.end is not None:
            network.schedule_at(self.end, disable)


@dataclasses.dataclass(frozen=True)
class ViewChangeStorm(FaultEvent):
    """Force ``rounds`` successive view changes, ``gap`` virtual ms apart."""

    start: float
    rounds: int = 1
    gap: float = 50.0
    #: Limit the storm to one shard's replica group (None = every group).
    shard: Union[int, None] = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise SimulationError("a storm needs at least one round")
        if self.gap <= 0:
            raise SimulationError("storm gap must be positive")

    def schedule(self, engine: Any) -> None:
        network = engine.network

        def blow(round_index: int) -> None:
            scope = "" if self.shard is None else f" shard={self.shard}"
            engine.metrics.record_event(
                network.now, "fault", f"view-change-storm round {round_index}{scope}"
            )
            for node in _shard_nodes(engine, self.shard):
                network.post(node.replica_id, node.force_view_change)

        for index in range(self.rounds):
            network.schedule_at(self.start + index * self.gap, lambda i=index: blow(i))
