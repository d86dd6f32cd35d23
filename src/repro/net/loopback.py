"""In-process asyncio transport: real concurrency, in-memory delivery.

:class:`AsyncioLoopbackTransport` is the first rung of the deployment
ladder after the simulation: the same delivery core (nodes, handlers,
MAC-authenticated deliveries, fault hooks, counts) and timer semantics as
:class:`~repro.replication.network.SimulatedNetwork`, but driven by real
asyncio event loops on real threads with wall-clock time.  Payloads
cross threads by reference and nothing is encoded for a wire: each
multicast payload is serialised once, by the sender's ``mac``, and every
delivery carries those sealed bytes so its receiver pays one HMAC and
no serialisation (see :mod:`repro.replication.crypto` for why that
holds only for immutable payloads).  What one reactor sustains here is
therefore the protocol's own cost: the simulation's per-message
``processing_time`` model was fitted to it (0.2 virtual ms per
delivery), and the ladder's ``write_loopback`` workload is where its
throughput is tracked.

Deliveries hop onto the *receiver's* reactor through its mailbox, so a
node's handler runs serially on its pinned loop exactly like in the
simulation; with ``reactors > 1`` a sharded cluster pins each replica
group to its own loop and the groups genuinely run in parallel.
"""

from __future__ import annotations

from repro.net.transport import RealTransport

__all__ = ["AsyncioLoopbackTransport"]


class AsyncioLoopbackTransport(RealTransport):
    """Asyncio reactors delivering payloads in memory (``RealTransport.send``)."""

    name = "loopback"
