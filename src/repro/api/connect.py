"""``connect()`` — the one factory behind every deployment shape.

::

    from repro.api import connect

    space = connect("local", policy=my_policy)
    space = connect("replicated", policy=my_policy, f=1)
    space = connect("sharded", policy=my_policy, shards=4)

    # real concurrency instead of the virtual-time simulation:
    space = connect("replicated", policy=my_policy, transport="asyncio")
    space = connect("sharded", policy=my_policy, shards=4, transport="tcp")

    # or wrap a deployment that already exists:
    space = connect(service=ShardedPEATS(my_policy, shards=4))

``"replicated"`` is the paper's Fig. 2 deployment, one replica group of
``3f + 1`` servers, and it is built as a one-shard
:class:`~repro.cluster.service.ShardedPEATS`: there is one networked
deployment type, and the shard count alone decides whether requests are
routed and wildcard probes gathered.

Every call returns a :class:`~repro.api.space.Space` with identical
semantics — blocking and ``submit_*`` operation forms, one timeout and
exception model, ``bind(process)`` views — so the same coordination
program runs unmodified against any backend *and* any transport.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.errors import TupleSpaceError
from repro.api.local import LocalSpace
from repro.api.sharded import ShardedSpace
from repro.api.space import Space
from repro.cluster.routing import RoutingPolicy
from repro.cluster.service import ShardedPEATS
from repro.net import AsyncioLoopbackTransport, TcpTransport, Transport
from repro.obs import resolve_obs
from repro.peo.peats import PEATS
from repro.policy.policy import AccessPolicy
from repro.replication.network import NetworkConfig
from repro.replication.service import ReplicatedPEATS

__all__ = ["connect", "BACKENDS", "TRANSPORTS"]

#: The deployment shapes ``connect`` can build or wrap.
BACKENDS = ("local", "replicated", "sharded")

#: The named substrates a simulated backend can be built on.  ``"sim"``
#: is the default virtual-time :class:`~repro.replication.network.
#: SimulatedNetwork`; ``"asyncio"`` (alias ``"loopback"``) is the
#: in-process real-concurrency transport; ``"tcp"`` runs length-prefixed
#: frames over localhost sockets.  A ready-made
#: :class:`~repro.net.Transport` instance is accepted too.
TRANSPORTS = ("sim", "asyncio", "loopback", "tcp")


def connect(
    backend: str | None = None,
    *,
    policy: AccessPolicy | None = None,
    service: Union[PEATS, ShardedPEATS, None] = None,
    f: int = 1,
    shards: int | None = None,
    routing: RoutingPolicy | None = None,
    network_config: NetworkConfig | None = None,
    transport: Union[str, Transport, None] = None,
    replica_faults: Mapping[Any, Any] | None = None,
    view_change_timeout: float | None = None,
    max_batch_size: int = 8,
    checkpoint_interval: int = 8,
    obs: Any = None,
) -> Space:
    """Build (or wrap) a deployment and return its unified :class:`Space`.

    Either pass ``backend`` (``"local"``, ``"replicated"`` or
    ``"sharded"``) plus a ``policy`` to build a fresh deployment, or pass
    an existing deployment via ``service=`` (a
    :class:`~repro.peo.peats.PEATS` or a
    :class:`~repro.cluster.service.ShardedPEATS`) and the backend is
    inferred; a ``backend`` given alongside ``service`` must agree with
    the inferred one.  A one-shard cluster is the ``"replicated"``
    backend (``"sharded"`` names it too); a bare
    :class:`~repro.replication.service.ReplicatedPEATS` group is not a
    deployment and is refused.

    ``transport`` picks the substrate of a *built* networked deployment
    (one of :data:`TRANSPORTS`, or a :class:`~repro.net.Transport`
    instance).  The default stays the deterministic virtual-time
    simulation; ``"asyncio"`` and ``"tcp"`` run the same protocol stack
    on real event loops — a sharded deployment then gets one reactor per
    replica group.  Real-transport handles should be
    :meth:`~repro.api.space.Space.close`\\ d (or used as context
    managers) to stop their reactor threads.

    The remaining keywords configure the built deployment and are ignored
    where they do not apply (``f``/``network_config`` for the simulated
    backends), except that ``"replicated"`` refuses a ``routing`` and a
    ``shards`` other than 1.  ``shards`` defaults to 2 on ``"sharded"``.
    """
    if service is not None:
        if transport is not None:
            raise TupleSpaceError(
                "connect(service=...) wraps an existing deployment, which "
                "already owns its transport; transport= only applies when "
                "building one"
            )
        if obs is not None:
            raise TupleSpaceError(
                "connect(service=...) wraps an existing deployment, which "
                "already owns its observability; pass obs= to the service "
                "constructor (or to connect() when building one)"
            )
        names = _backends_of(service)
        if backend is not None and backend not in names:
            raise TupleSpaceError(
                f"connect(backend={backend!r}) disagrees with the provided "
                f"service, which is a {names[0]!r} deployment"
            )
        return LocalSpace(service) if isinstance(service, PEATS) else ShardedSpace(service)
    if backend is None:
        raise TupleSpaceError("connect() needs a backend name or a service=")
    if backend not in BACKENDS:
        raise TupleSpaceError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if policy is None:
        raise TupleSpaceError(f"connect({backend!r}) needs a policy= to build")
    if backend == "local":
        if transport not in (None, "sim"):
            raise TupleSpaceError(
                "the local backend is in-process and takes no transport"
            )
        return LocalSpace(PEATS(policy, obs=obs))
    if backend == "replicated":
        if shards not in (None, 1) or routing is not None:
            raise TupleSpaceError(
                "the replicated backend is one replica group; it takes no "
                "shards (other than 1) and no routing — use "
                "connect('sharded', ...) to shard"
            )
        shards = 1
    elif shards is None:
        shards = 2
    if transport not in (None, "sim") and network_config is not None:
        raise TupleSpaceError(
            "network_config configures the simulated network; pass either "
            "it or a real transport, not both"
        )
    # One bundle per deployment: the transport built here and the service
    # count on the same registry, attached or private.
    obs = resolve_obs(obs)
    network = _build_transport(transport, reactors=shards, obs=obs)
    try:
        return ShardedSpace(
            ShardedPEATS(
                policy,
                shards=shards,
                f=f,
                routing=routing,
                network_config=network_config,
                network=network,
                replica_faults=dict(replica_faults) if replica_faults else None,
                view_change_timeout=view_change_timeout,
                max_batch_size=max_batch_size,
                checkpoint_interval=checkpoint_interval,
                obs=obs,
            )
        )
    except BaseException:
        # A deployment that failed to build must not leak the reactor
        # threads of a transport we created for it.
        if network is not None:
            network.close()
        raise


def _build_transport(
    transport: Union[str, Transport, None], *, reactors: int, obs: Any = None
) -> Optional[Transport]:
    """Resolve the ``transport=`` argument to a network, or ``None`` for
    the default simulated one."""
    if transport is None or transport == "sim":
        return None
    if isinstance(transport, str):
        if transport in ("asyncio", "loopback"):
            return AsyncioLoopbackTransport(reactors=reactors, obs=obs)
        if transport == "tcp":
            return TcpTransport(reactors=reactors, obs=obs)
        raise TupleSpaceError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS} "
            "or a Transport instance"
        )
    if isinstance(transport, Transport):
        return transport
    raise TupleSpaceError(
        f"connect() cannot use a {type(transport).__name__} as a transport"
    )


def _backends_of(service: Any) -> tuple[str, ...]:
    """The backend names ``service`` answers to, the reported one first."""
    if isinstance(service, ShardedPEATS):
        return ("replicated", "sharded") if service.n_shards == 1 else ("sharded",)
    if isinstance(service, PEATS):
        return ("local",)
    if isinstance(service, ReplicatedPEATS):
        raise TupleSpaceError(
            "connect() cannot wrap a bare ReplicatedPEATS replica group; the "
            "single-group deployment is ShardedPEATS(policy, shards=1)"
        )
    raise TupleSpaceError(
        f"connect() cannot wrap a {type(service).__name__}; expected a "
        "PEATS or ShardedPEATS deployment"
    )
