"""The replicated backend of the unified API: one PBFT group.

:class:`ReplicatedSpace` fronts a :class:`~repro.replication.service.
ReplicatedPEATS`.  Each ``process`` maps to one authenticated
:class:`~repro.replication.client.PEATSClient` identity (memoized on the
service), probes resolve through the ``f + 1`` reply vote, and blocking
reads are the Section 4 polling recipe scheduled on the network's virtual
clock — all in **simulated milliseconds**.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.errors import ReplicationError
from repro.futures import OperationFuture
from repro.api.space import Space
from repro.notify import Subscription, WaiterHandle
from repro.replication.service import ReplicatedPEATS
from repro.tuples import Entry, Template

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = ["ReplicatedSpace"]


class ReplicatedSpace(Space):
    """Unified handle over one ``3f + 1``-replica PBFT group."""

    backend = "replicated"
    time_unit = "simulated ms"
    default_blocking_timeout = 1_000.0
    default_poll_interval = 10.0

    def __init__(self, service: ReplicatedPEATS) -> None:
        super().__init__(service.obs)
        self._service = service
        # On a real transport (repro.net) the deployment's clock is the
        # wall clock; label timeouts accordingly (same numeric defaults —
        # a millisecond is a millisecond on either clock).
        if not service.network.virtual_time:
            self.time_unit = service.network.time_unit

    @property
    def service(self) -> ReplicatedPEATS:
        return self._service

    @property
    def network(self) -> "Transport":
        return self._service.network

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def _submit_probe(
        self, operation: str, arguments: tuple[Any, ...], process: Hashable
    ) -> OperationFuture:
        return self._service.client(process).submit(operation, tuple(arguments))

    def _submit_txn(self, legs: tuple[Any, ...], process: Hashable) -> OperationFuture:
        """One group holds every leg, so one ordered ``txn_exec`` request
        is the whole commit: the PBFT instance is the atomicity."""
        return self._service.client(process).submit("txn_exec", (legs,))

    def _drive(self, future: OperationFuture) -> None:
        self._service.network.run_until(lambda: future.done)
        if not future.done:  # pragma: no cover - retransmit timers prevent this
            raise ReplicationError(
                f"network drained before {future!r} resolved"
            )

    def _now(self) -> float:
        return self._service.network.now

    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._service.network.schedule_after(delay, callback)

    def snapshot(self) -> tuple[Entry, ...]:
        return self._service.snapshot()

    # ------------------------------------------------------------------
    # Notification channel (repro.notify)
    # ------------------------------------------------------------------

    def _arm_waiter(
        self,
        operation: str,
        template: Template,
        process: Hashable,
        wake: Callable[[Any, Any], None],
    ) -> Optional[WaiterHandle]:
        """Arm one waiter on every replica of the group; wake on f+1 pushes."""
        client = self._service.client(process)
        waiter = client.arm_waiter(template, operation, wake)
        return WaiterHandle(
            waiter.waiter_id,
            lambda: client.disarm_waiter(waiter.waiter_id),
            rearm=lambda: client.rearm_waiter(waiter.waiter_id),
        )

    def _register_watch(
        self, subscription: Subscription, process: Hashable
    ) -> Callable[[], None]:
        client = self._service.client(process)
        waiter = client.arm_waiter(
            subscription.template,
            "watch",
            lambda entry, event: subscription.deliver(entry, event),
        )
        return lambda: client.disarm_waiter(waiter.waiter_id)

    def _stats_extra(self) -> dict[str, Any]:
        return {
            "nodes": {node.replica_id: node.statistics for node in self._service.nodes},
            "notify": {
                "waiters": {
                    node.replica_id: len(node.application.waiters)
                    for node in self._service.nodes
                },
            },
        }

    def __repr__(self) -> str:
        return f"ReplicatedSpace(f={self._service.f}, replicas={self._service.n_replicas})"
