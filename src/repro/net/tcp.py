"""TCP transport: length-prefixed frames over asyncio sockets.

:class:`TcpTransport` is the multi-process rung of the deployment
ladder.  Every registered node gets its own frame server (one listening
socket per node, started on the node's pinned reactor), senders keep one
lazily-opened connection per (reactor, receiver) pair, and payloads
travel as the :mod:`repro.net.codec` frames — serialised once at the
sender, MAC'd over the exact bytes, verified and decoded on the
receiving node's own reactor.

Both ends take a batch of frames per loop wake: an accepted connection's
:class:`asyncio.Protocol` splits every whole frame out of each chunk, and
a send pump writes its whole backlog with one ``write`` and ``drain``.

Within one process the transport discovers its own listening ports and
is zero-configuration (the conformance suite runs whole replica groups
over localhost sockets this way).  Across processes, pass ``addresses``
— a ``{node: (host, port)}`` map for the remote peers — and pick fixed
ports per node via ``port_of``; :meth:`TcpTransport.address_of` tells
you what to put in the other processes' maps.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import struct
from typing import Any, Callable, Hashable, Mapping, Optional

from repro.errors import SimulationError
from repro.net import codec
from repro.net.transport import Reactor, RealTransport
from repro.replication.crypto import KeyStore

__all__ = ["TcpTransport"]

_FRAME_HEADER = struct.Struct(codec.FRAME_HEADER)
_HEADER_SIZE = _FRAME_HEADER.size


class _Outbound:
    """One sender-side connection: a frame backlog drained by a pump task."""

    __slots__ = ("frames", "event", "task")

    def __init__(self) -> None:
        self.frames: collections.deque[tuple[Hashable, bytes]] = collections.deque()
        self.event = asyncio.Event()
        self.task: Optional[asyncio.Task] = None


class _Inbound(asyncio.Protocol):
    """One accepted connection to ``node``: every whole frame of each chunk."""

    def __init__(self, owner: "TcpTransport", node: Hashable) -> None:
        self._owner, self._node = owner, node
        self._open = owner._inbound.setdefault(node, set())
        #: The head of a frame whose tail has not arrived yet.
        self._partial = bytearray()

    def connection_made(self, transport: Any) -> None:
        self._connection = transport
        self._open.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._open.discard(self._connection)

    def data_received(self, data: bytes) -> None:
        """Deliver each whole frame, keep the tail.  Runs on ``node``'s
        reactor, so its handler sees its messages one at a time."""
        partial = self._partial
        if partial:
            partial += data
            data = partial
        offset, size, length = 0, len(data), 0
        while size - offset >= _HEADER_SIZE:
            (length,) = _FRAME_HEADER.unpack_from(data, offset)
            end = offset + _HEADER_SIZE + length
            if length > codec.MAX_FRAME_BYTES or end > size:
                break
            self._owner._deliver_frame(self._node, bytes(data[offset + _HEADER_SIZE : end]))
            offset = end
        if length > codec.MAX_FRAME_BYTES:
            self._owner._reject(self._node, "oversized-frame")
            self._connection.close()
        elif data is partial:
            del partial[:offset]
        else:
            partial += data[offset:]


class TcpTransport(RealTransport):
    """Authenticated length-prefixed frames over localhost/remote TCP."""

    name = "tcp"

    def __init__(
        self,
        *,
        reactors: int = 1,
        host: str = "127.0.0.1",
        keystore: KeyStore | None = None,
        addresses: Mapping[Hashable, tuple[str, int]] | None = None,
        port_of: Callable[[Hashable], int] | None = None,
        obs: Any = None,
    ) -> None:
        """``addresses`` seeds endpoints for *remote* nodes (other
        processes); ``port_of`` assigns fixed listening ports to local
        nodes (default: ephemeral, self-discovered)."""
        super().__init__(reactors=reactors, keystore=keystore, obs=obs)
        self._host = host
        self._addresses: dict[Hashable, tuple[str, int]] = dict(addresses or {})
        self._port_of = port_of
        #: Each node's frame server, or its start-up task (see _attach).
        self._servers: dict[Hashable, Any] = {}
        self._outbound: dict[tuple[int, Hashable], _Outbound] = {}
        #: Accepted connections still open, per node.
        self._inbound: dict[Hashable, set[asyncio.BaseTransport]] = {}
        #: ``(payload, wire bytes)`` last encoded by :meth:`_covered`,
        #: compared by identity (initially a fresh object no payload can be).
        self._encoded: tuple[Any, bytes] = (object(), b"")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def has_node(self, node: Hashable) -> bool:
        """Local nodes *and* configured remote peers are reachable."""
        return node in self._handlers or node in self._addresses

    def address_of(self, node: Hashable) -> tuple[str, int]:
        """The ``(host, port)`` other processes should use for ``node``."""
        address = self._addresses.get(node)
        if address is None:
            raise SimulationError(f"no address known for node {node!r}")
        return address

    # ------------------------------------------------------------------
    # Node lifecycle: one frame server per node
    # ------------------------------------------------------------------

    def _attach(self, node: Hashable) -> None:
        """Listen at once, then serve from the node's reactor: as a task
        when called there (the loop cannot wait on itself; peers queue in
        the listen backlog meanwhile)."""
        reactor = self.reactor_of(node)
        port = 0 if self._port_of is None else self._port_of(node)
        family = socket.getaddrinfo(self._host, port, type=socket.SOCK_STREAM)[0][0]
        listener = socket.create_server((self._host, port), family=family)
        listener.setblocking(False)
        self._addresses[node] = (self._host, listener.getsockname()[1])
        serving = reactor.loop.create_server(lambda: _Inbound(self, node), sock=listener)
        if reactor.current:
            self._servers[node] = reactor.loop.create_task(serving)
        else:
            self._servers[node] = reactor.run_coroutine(serving)

    def _detach(self, node: Hashable) -> None:
        server = self._servers.pop(node, None)
        if server is None:
            return

        async def shutdown() -> None:
            try:
                started = await server if isinstance(server, asyncio.Task) else server
                started.close()
                for connection in self._inbound.pop(node, ()):
                    connection.close()
                await started.wait_closed()
            except Exception:  # pragma: no cover - teardown best effort
                pass

        try:
            self.reactor_of(node).run_coroutine(shutdown(), timeout=2.0)
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def _deliver_frame(self, node: Hashable, body: bytes) -> None:
        """Verify the MAC over the payload bytes, then decode and deliver."""
        self._count("bytes_received", len(body) + _HEADER_SIZE)
        try:
            sender, receiver, payload_bytes, mac = codec.decode_frame(body)
        except codec.CodecError:
            self._reject(node, "undecodable-frame")
            return
        if receiver != node:
            # A frame addressed elsewhere landed on this node's socket —
            # misrouted or forged; never hand it to the handler.
            self._reject(node, "misrouted", sender)
            return
        if not self._authentic(sender, node, payload_bytes, mac):
            return
        try:
            payload = codec.decode_payload(payload_bytes)
        except codec.CodecError:
            self._reject(node, "undecodable-payload", sender, payload_bytes)
            return
        self._contained(self._hand_over, sender, node, payload)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _covered(self, payload: Any) -> bytes:
        """The MAC covers the payload's wire bytes, encoded once per payload:
        the n−1 sends of one broadcast share one encoding — and, handing the
        authenticator the same ``bytes`` object, one canonical serialisation."""
        encoded, payload_bytes = self._encoded
        if encoded is not payload:
            payload_bytes = codec.encode_payload(payload)
            self._encoded = (payload, payload_bytes)
        return payload_bytes

    def send(self, sender: Hashable, receiver: Hashable, payload: Any) -> None:
        """Seal the payload's wire bytes per receiver and enqueue the frame
        on the sender's reactor (at once when called there)."""
        if self._closed:
            return
        sealed = self._seal(sender, receiver, payload)
        if sealed is None:
            return
        payload, mac, _ = sealed
        frame = codec.encode_frame(sender, receiver, self._covered(payload), mac)
        self._count("bytes_sent", len(frame))
        reactor = self.reactor_of(sender if sender in self._handlers else receiver)
        if reactor.current:
            self._enqueue(reactor, sender, receiver, frame)
        else:
            reactor.call_soon(self._enqueue, reactor, sender, receiver, frame)

    def _enqueue(
        self, reactor: Reactor, sender: Hashable, receiver: Hashable, frame: bytes
    ) -> None:
        """Append to the (reactor, receiver) backlog; runs on the reactor."""
        key = (id(reactor), receiver)
        out = self._outbound.get(key)
        if out is None:
            out = _Outbound()
            self._outbound[key] = out
            out.task = reactor.loop.create_task(self._pump(out, receiver))
        out.frames.append((sender, frame))
        out.event.set()

    def _concede(self, out: _Outbound, receiver: Hashable) -> None:
        """Drop a backlog the peer never took (unreachable or resetting)."""
        while out.frames:
            sender, frame = out.frames.popleft()
            self._drop(sender, receiver, "unreachable", frame)

    #: Write attempts (each over a fresh connection) per batch before
    #: the whole backlog is conceded as dropped.
    WRITE_ATTEMPTS = 3
    #: Connection attempts (with linear backoff) before a peer counts as
    #: unreachable.
    CONNECT_RETRIES = 5

    async def _pump(self, out: _Outbound, receiver: Hashable) -> None:
        """Drain one backlog over one (re)connecting stream."""
        writer: Optional[asyncio.StreamWriter] = None
        attempts = 0
        try:
            while True:
                await out.event.wait()
                out.event.clear()
                while out.frames:
                    if writer is None:
                        writer = await self._connect(receiver)
                        if writer is None:
                            self._concede(out, receiver)
                            attempts = 0
                            break
                    batch = [frame for _, frame in out.frames]
                    try:
                        writer.writelines(batch)
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError, OSError):
                        # The peer dropped the stream: reconnect and retry
                        # the batch a bounded number of times (a peer that
                        # accepts connections but resets every write must
                        # not spin the reactor forever), then concede and
                        # drop the backlog like an unreachable peer.
                        writer = None
                        attempts += 1
                        if attempts >= self.WRITE_ATTEMPTS:
                            self._concede(out, receiver)
                            attempts = 0
                            break
                        continue
                    for _ in batch:
                        out.frames.popleft()
                    attempts = 0
        finally:
            if writer is not None:
                writer.close()

    async def _connect(self, receiver: Hashable) -> Optional[asyncio.StreamWriter]:
        address = self._addresses.get(receiver)
        if address is None:
            return None
        for attempt in range(self.CONNECT_RETRIES):
            try:
                _, writer = await asyncio.open_connection(*address)
                return writer
            except OSError:
                await asyncio.sleep(0.02 * (attempt + 1))
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        # The base close detaches every node's server and connections;
        # the pump tasks are then cancelled (and their writers closed) by
        # each reactor's stop() before its loop stops.
        self._outbound.clear()
        super().close()
