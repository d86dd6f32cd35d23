"""In-process asyncio transport: real concurrency, in-memory delivery.

:class:`AsyncioLoopbackTransport` is the first rung of the deployment
ladder after the simulation: the same nodes, handlers, MAC-authenticated
envelopes and timer semantics as
:class:`~repro.replication.network.SimulatedNetwork`, but driven by real
asyncio event loops on real threads with wall-clock time.  Payloads stay
in memory (no serialisation), so what one reactor sustains here is the
protocol's own cost: the simulation's per-message ``processing_time``
model was fitted to it (0.2 virtual ms per delivery), and the ladder's
``write_loopback`` workload is where its throughput is tracked.

Deliveries hop onto the *receiver's* reactor, so a node's handler runs
serially on its pinned loop exactly like in the simulation; with
``reactors > 1`` a sharded cluster pins each replica group to its own
loop and the groups genuinely run in parallel.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.net.transport import RealTransport

__all__ = ["AsyncioLoopbackTransport"]


class AsyncioLoopbackTransport(RealTransport):
    """Asyncio tasks + queues transport delivering payloads in memory."""

    name = "loopback"

    def _dispatch(self, sender: Hashable, receiver: Hashable, payload: Any, mac: str) -> None:
        # The payload crosses threads by reference; the MAC is verified on
        # the receiving reactor so the authentication cost lands on the
        # receiver, mirroring the simulation's processing model.
        self.reactor_of(receiver).call_soon(
            lambda: self._handle_delivery(sender, receiver, payload, mac)
        )
