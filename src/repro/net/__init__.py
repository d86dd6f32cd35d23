"""repro.net — real-network substrates behind the simulation's contract.

The deployment ladder of the reproduction, bottom to top:

1. :class:`~repro.replication.network.SimulatedNetwork` — virtual time,
   one thread, seeded; every deterministic test and scenario runs here.
2. :class:`AsyncioLoopbackTransport` — the same contract on real asyncio
   event loops (daemon-thread reactors) with wall-clock timers and
   in-memory delivery; the deployment the sim's ``processing_time``
   model was fitted to.
3. :class:`TcpTransport` — length-prefixed binary envelopes over
   asyncio sockets for multi-process deployment; each carries
   a payload serialised once as a positional JSON tree and MAC'd over
   those bytes (:mod:`repro.net.codec`).  Every process of a deployment
   runs the same release: another release's frames are rejected.

All three implement the :class:`Transport` protocol on one
:class:`~repro.replication.network.DeliveryCore` (registration, fault
hooks, MACs, counts), so the PBFT ordering layer, the replica
application, the voting client, the sharded cluster, the unified API and
the fault schedules of :mod:`repro.sim` run unmodified on any of them::

    from repro.api import connect

    space = connect("replicated", policy=policy, transport="asyncio")
    space = connect("sharded", policy=policy, shards=4, transport="tcp")

A sharded deployment on a real transport gets **one reactor per replica
group** (see :meth:`~repro.net.transport.RealTransport.pin`), so the
cluster's parallelism is real, not just simulated.
"""

from repro.net.transport import NetTimer, Reactor, RealTransport, Transport
from repro.net.loopback import AsyncioLoopbackTransport
from repro.net.tcp import TcpTransport
from repro.net.codec import CodecError

__all__ = [
    "Transport",
    "NetTimer",
    "Reactor",
    "RealTransport",
    "AsyncioLoopbackTransport",
    "TcpTransport",
    "CodecError",
]
