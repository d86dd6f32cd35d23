"""The transport contract, and the real-concurrency base transport.

Every layer of the replicated PEATS — the PBFT ordering nodes, the
replica application, the voting client, the sharded cluster and the
unified ``repro.api`` — talks to the network through one small surface:
register a handler, send/broadcast authenticated payloads, cut and heal
links, make a node faulty or tamper with a sender's payloads, schedule
cancellable timers, read a clock, and drive the system until a
condition holds.
:class:`Transport` names that surface, and three implementations share
one :class:`~repro.replication.network.DeliveryCore` for everything
they do to a message besides moving it (registration, fault filters,
sealing, verification, accounting, flight events, ``statistics``):

================  ===============  ==========================  =========
implementation    time             concurrency                 wire
================  ===============  ==========================  =========
SimulatedNetwork  virtual ms       single-threaded, seeded     in-memory
AsyncioLoopback   wall-clock ms    asyncio reactors (threads)  in-memory
TcpTransport      wall-clock ms    asyncio reactors (threads)  TCP frames
================  ===============  ==========================  =========

:class:`RealTransport` adds what the two real implementations share: a
pool of **reactors** (one daemon thread running one asyncio event loop
each), node→reactor pinning so a sharded cluster can give every replica
group its own loop, wall-clock timers (:class:`NetTimer`), and blocking
waits instead of a pumped queue: ``settle`` sleeps until the reactor
that resolves the awaited future wakes it, while ``run_until`` (a
predicate nothing signals) and ``run_for`` sleep on the wall clock.

Threading model
---------------

Each registered node is pinned to exactly one reactor and its handler is
only ever invoked on that reactor's loop, so — exactly as in the
simulation — a node never observes two of its own messages concurrently.
Timers created *inside* a handler fire on the same reactor (the node's
serial context); timers created from a plain thread fire on reactor 0,
which is also where client identities live by default.  Handler
exceptions are caught and counted (``statistics["handler_errors"]``)
so one bad message cannot kill a reactor.

Work for a reactor — deliveries, sends queued for a socket from another
thread, ``post`` pokes — goes through its **mailbox**: one FIFO of
``(callback, args)`` that any thread appends to, drained on the loop by
a single callback.  A message therefore costs a deque append, not an
asyncio ``Handle``, a closure and a ``Context.run``.  A drain runs only
the callbacks queued when it started and then re-arms itself behind
whatever else is ready, so timers, sockets and foreign-thread posts
interleave with deliveries as often as asyncio's own ready queue would
let them.  Only the call that arms an idle mailbox from a foreign thread
writes the loop's self-pipe.  ``statistics["pending"]`` is the
mailboxes' total length.
"""

from __future__ import annotations

import asyncio
import collections
import threading
import time
from typing import Any, Callable, Hashable, Iterable, Optional, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.futures import OperationFuture
from repro.replication.crypto import KeyStore, MessageAuthenticator
from repro.replication.network import DeliveryCore

__all__ = ["Transport", "NetTimer", "Reactor", "RealTransport"]


@runtime_checkable
class Transport(Protocol):
    """The network contract the replication stack is written against.

    Every implementation inherits its delivery half from
    :class:`~repro.replication.network.DeliveryCore` and adds a clock
    and a way to move sealed deliveries.  ``timeout``/
    ``delay`` values are **milliseconds of the transport's own clock** —
    virtual for the simulation, wall-clock for the real transports; the
    :attr:`virtual_time` flag and :attr:`time_unit` label tell callers
    which one they are holding.
    """

    #: ``True`` when the clock is simulated (single-threaded, seeded).
    virtual_time: bool
    #: Human-readable unit of ``now``/timeouts (e.g. ``"wall-clock ms"``).
    time_unit: str
    #: Default view-change timeout of the nodes built on this transport.
    view_change_timeout: float

    @property
    def authenticator(self) -> MessageAuthenticator: ...

    @property
    def now(self) -> float: ...

    def register(self, node: Hashable, handler: Callable[[Hashable, Any], None]) -> None: ...

    def has_node(self, node: Hashable) -> bool: ...

    def nodes(self) -> tuple[Hashable, ...]: ...

    def send(self, sender: Hashable, receiver: Hashable, payload: Any) -> None: ...

    def broadcast(
        self, sender: Hashable, receivers: Iterable[Hashable], payload: Any
    ) -> None: ...

    #: Fault injection, identical on every transport: cut/restore links,
    #: write a node's row of the fault table (see
    #: :mod:`repro.replication.adversary`) and rewrite a sender's payloads
    #: in flight (receivers reject them).
    def partition(self, a: Hashable, b: Hashable) -> None: ...

    def heal(self, a: Hashable, b: Hashable) -> None: ...

    def heal_all(self) -> None: ...

    def set_fault(
        self, node: Hashable, mode: Any, *, rewrite: Any, sink: bool, posts: bool
    ) -> None: ...

    def fault_of(self, node: Hashable) -> Any: ...

    def set_tampering(self, sender: Hashable, tamper: Callable[[Any], Any] | None) -> None: ...

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> Any: ...

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Any: ...

    def run_until(
        self, condition: Callable[[], bool], *, max_events: int = 1_000_000
    ) -> bool: ...

    def run_for(self, duration: float, *, max_events: int = 1_000_000) -> int: ...

    #: How a blocking call waits: drive until ``future`` resolves.
    def settle(self, future: OperationFuture, timeout: float | None = None) -> bool: ...

    #: Event loops serving the nodes: ``pin`` chooses a node's loop, ``post``
    #: runs a callback in the node's serial context (after all already
    #: queued there; inline on the simulation), ``close`` releases
    #: threads and sockets (one loop, the caller's, on the simulation).
    reactor_count: int

    def pin(self, node: Hashable, reactor: int) -> None: ...

    def post(self, node: Hashable, callback: Callable[[], None]) -> None: ...

    def close(self) -> None: ...

    @property
    def statistics(self) -> dict[str, float]: ...


class NetTimer:
    """A cancellable wall-clock timer armed on one reactor's loop.

    The real-transport counterpart of the simulation's
    :class:`~repro.replication.network.Timer`: same ``cancel()`` surface,
    but backed by ``loop.call_later``.  Arming from a foreign thread is
    marshalled onto the loop; ``cancel()`` is safe from any thread (the
    ``cancelled`` flag is checked at fire time, so a cancel always wins
    even when it races the arming hop).
    """

    __slots__ = ("when", "callback", "cancelled", "_loop", "_handle")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        when: float,
        delay_ms: float,
        callback: Callable[[], None],
        on_fire: Callable[[Callable[[], None]], None],
    ) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False
        self._loop = loop
        self._handle: Optional[asyncio.TimerHandle] = None

        def fire() -> None:
            self._handle = None
            if not self.cancelled:
                on_fire(callback)

        def arm() -> None:
            if not self.cancelled:
                self._handle = loop.call_later(max(delay_ms, 0.0) / 1000.0, fire)

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            arm()
        else:
            loop.call_soon_threadsafe(arm)

    def cancel(self) -> None:
        self.cancelled = True
        handle = self._handle
        if handle is not None:
            try:
                self._loop.call_soon_threadsafe(handle.cancel)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"NetTimer(when={self.when:.3f}, {state})"


class Reactor:
    """One daemon thread running one asyncio event loop forever."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.loop = asyncio.new_event_loop()
        #: ``(callback, args)`` waiting for the loop, oldest first.
        self._mailbox: collections.deque[tuple[Callable[..., None], tuple]] = (
            collections.deque()
        )
        #: Whether a drain is queued or running.  Cleared by the drain
        #: *before* it looks at the mailbox one last time, so an append
        #: racing the end of a drain is either seen there or arms anew.
        self._armed = False
        self._stopped = False
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        self.loop.run_forever()

    @property
    def pending(self) -> int:
        """Callbacks queued in the mailbox and not yet started."""
        return len(self._mailbox)

    @property
    def current(self) -> bool:
        """Whether the calling thread is this reactor's own."""
        return threading.get_ident() == self._thread.ident

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` on this reactor; callable from any thread.

        Every caller appends to the one mailbox, so callbacks run in
        submission order whichever thread queued them.  A no-op once the
        reactor is stopped (shutdown races lose quietly, and the mailbox
        of a closed loop never grows).
        """
        if self._stopped:
            return
        self._mailbox.append((callback, args))
        if self._armed:
            return
        self._armed = True
        try:
            if self.current:
                self.loop.call_soon(self._drain_mailbox)
            else:
                self.loop.call_soon_threadsafe(self._drain_mailbox)
        except RuntimeError:  # the loop closed under a racing stop()
            pass

    def _drain_mailbox(self) -> None:
        """Run what was queued when this drain started, then re-arm."""
        mailbox = self._mailbox
        for _ in range(len(mailbox)):
            callback, args = mailbox.popleft()
            try:
                callback(*args)
            except Exception as error:  # noqa: BLE001 - the rest must still run
                self.loop.call_exception_handler(
                    {"message": f"exception in {self.name} callback", "exception": error}
                )
        self._armed = False
        if mailbox:
            self._armed = True
            self.loop.call_soon(self._drain_mailbox)

    def run_coroutine(self, coroutine: Any, *, timeout: float = 10.0) -> Any:
        """Run ``coroutine`` on this reactor and wait for its result.

        Never from the reactor's own thread: the loop would wait on
        itself until ``timeout``, stalling every node it serves."""
        if self.current:
            coroutine.close()
            raise SimulationError(f"{self.name} cannot wait on itself; schedule a task")
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    def stop(self) -> None:
        if self.loop.is_closed():
            return
        try:
            self.run_coroutine(self._cancel_tasks(), timeout=2.0)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)
        self._stopped = True
        if not self._thread.is_alive():
            self.loop.close()
            self._mailbox.clear()

    @staticmethod
    async def _cancel_tasks() -> None:
        """Cancel and await every task so the loop closes without orphans."""
        current = asyncio.current_task()
        tasks = [task for task in asyncio.all_tasks() if task is not current]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Reactor({self.name!r}, running={self._thread.is_alive()})"


class RealTransport(DeliveryCore):
    """Shared base of the asyncio-backed transports.

    Adds to the :class:`~repro.replication.network.DeliveryCore` the
    reactors, pinning, wall-clock timers and waiting.  Its :meth:`send`
    hands each sealed delivery to the receiver's reactor mailbox — the
    in-memory transport; :class:`~repro.net.tcp.TcpTransport` overrides
    ``send`` with frames and may use the :meth:`_attach`/:meth:`_detach`
    node lifecycle hooks (it starts one frame server per node there).
    """

    virtual_time = False
    time_unit = "wall-clock ms"
    #: Every node's default view-change timeout, in wall-clock ms: above
    #: a loaded reactor's stalls and the client's 100 ms retransmission
    #: nudge, so only a primary that stopped ordering is voted out.
    view_change_timeout = 1_000.0
    #: Wall-clock ms :meth:`run_until` waits when the caller names no budget
    #: (and :meth:`settle` past the operation's own timeout).
    DEFAULT_WAIT_TIMEOUT = 30_000.0
    name = "net"

    def __init__(
        self, *, reactors: int = 1, keystore: KeyStore | None = None, obs: Any = None
    ) -> None:
        if reactors < 1:
            raise SimulationError("a real transport needs at least one reactor")
        super().__init__(keystore=keystore, obs=obs)
        self._reactors = tuple(
            Reactor(f"repro-{self.name}-reactor-{index}") for index in range(reactors)
        )
        self._pins: dict[Hashable, int] = {}
        self._epoch = time.monotonic()
        self._closed = False
        self._last_handler_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Reactors and pinning
    # ------------------------------------------------------------------

    @property
    def reactor_count(self) -> int:
        return len(self._reactors)

    def pin(self, node: Hashable, reactor: int) -> None:
        """Pin ``node`` (registered or not yet) to one reactor.

        The sharded cluster pins every replica of shard ``k`` to reactor
        ``k % reactor_count`` so each replica group runs on its own event
        loop; unpinned nodes (clients, single-group replicas) live on
        reactor 0.
        """
        if not 0 <= reactor < len(self._reactors):
            raise SimulationError(
                f"no reactor {reactor!r} (transport has {len(self._reactors)})"
            )
        self._pins[node] = reactor

    def reactor_of(self, node: Hashable) -> Reactor:
        return self._reactors[self._pins.get(node, 0)]

    def post(self, node: Hashable, callback: Callable[[], None]) -> None:
        """Run ``callback()`` on ``node``'s reactor, after every callback
        and delivery already queued there.

        This is how cross-thread pokes (the client's view-change nudge)
        reach a node without racing its message handler: everything that
        touches the node's state funnels through its own loop.  The
        primary's once-per-turn drain rests on the ordering (its batch
        takes every request queued before it).  A node whose fault-table
        row holds its posts gets none."""
        if not self._posts_held(node):
            self.reactor_of(node).call_soon(self._contained, callback)

    def _contained(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` on a reactor: an exception a handler,
        timer or posted callback raises is counted and recorded, and the
        reactor carries on with its next callback."""
        try:
            callback(*args)
        except Exception as error:  # noqa: BLE001 - reactor must survive
            self._last_handler_error = error
            self._count("handler_errors")
            if self._events.enabled:
                self._events.record(
                    "net-error",
                    self.name,
                    self.now,
                    error=type(error).__name__,
                    detail=str(error),
                )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, node: Hashable, handler: Callable[[Hashable, Any], None]) -> None:
        if self._closed:
            raise SimulationError("transport is closed")
        super().register(node, handler)
        self._attach(node)

    def _attach(self, node: Hashable) -> None:
        """Subclass hook: the node was registered (start servers, ...)."""

    def _detach(self, node: Hashable) -> None:
        """Subclass hook: the transport is closing (stop servers, ...)."""

    # ------------------------------------------------------------------
    # Clock and timers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Milliseconds of wall-clock time since the transport started."""
        return (time.monotonic() - self._epoch) * 1000.0

    def _timer_loop(self) -> asyncio.AbstractEventLoop:
        """The loop a new timer belongs to: the current reactor if the
        caller is running on one, reactor 0 otherwise."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            return self._reactors[0].loop
        for reactor in self._reactors:
            if reactor.loop is running:
                return running
        return self._reactors[0].loop  # pragma: no cover - foreign loop caller

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> NetTimer:
        if delay < 0:
            raise SimulationError("timer delay cannot be negative")

        def fire(fn: Callable[[], None]) -> None:
            self._count("timers_fired")
            self._contained(fn)

        return NetTimer(self._timer_loop(), self.now + delay, delay, callback, fire)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> NetTimer:
        return self.schedule_after(max(when - self.now, 0.0), callback)

    # ------------------------------------------------------------------
    # In-memory delivery
    # ------------------------------------------------------------------

    def send(self, sender: Hashable, receiver: Hashable, payload: Any) -> None:
        """Seal ``payload`` and hand it to ``receiver``'s reactor mailbox.

        The payload crosses threads by reference with the bytes its MAC
        covers; verification runs on the receiving reactor, so the
        authentication cost lands on the receiver as in the simulation.
        """
        if self._closed:
            return
        sealed = self._seal(sender, receiver, payload)
        if sealed is not None:
            self.reactor_of(receiver).call_soon(self._land, sender, receiver, *sealed)

    def _land(
        self, sender: Hashable, receiver: Hashable, payload: Any, mac: str, sealed: bytes | None
    ) -> None:
        """Verify and deliver on the receiver's reactor (call it there)."""
        if self._authentic(sender, receiver, payload, mac, sealed):
            self._contained(self._hand_over, sender, receiver, payload)

    # ------------------------------------------------------------------
    # Driving (wall-clock waiting, not event pumping)
    # ------------------------------------------------------------------

    def run_until(
        self,
        condition: Callable[[], bool],
        *,
        max_events: int = 1_000_000,
        timeout: float | None = None,
    ) -> bool:
        """Block the calling thread, polling, until ``condition()`` holds:
        it is checked after sleeps of 0.2 ms doubling up to 5 ms (so it is
        seen up to one sleep late; :meth:`settle` waits without polling).
        Returns ``False`` when the wait timed out (default budget:
        ``DEFAULT_WAIT_TIMEOUT``), which callers treat like the simulation's
        "queue drained first".  ``max_events`` is ignored (signature parity).
        """
        budget_ms = self.DEFAULT_WAIT_TIMEOUT if timeout is None else timeout
        deadline = time.monotonic() + budget_ms / 1000.0
        wait = 0.0002
        while not condition():
            if time.monotonic() >= deadline:
                return bool(condition())
            time.sleep(wait)
            wait = min(wait * 2, 0.005)
        return True

    def settle(self, future: OperationFuture, timeout: float | None = None) -> bool:
        """Sleep until the reactor resolving ``future`` wakes this thread,
        up to ``DEFAULT_WAIT_TIMEOUT`` ms past ``timeout`` (the operation's
        own, if any).  Returns whether the future resolved."""
        budget_ms = self.DEFAULT_WAIT_TIMEOUT + (timeout or 0.0)
        return future.wait(budget_ms / 1000.0)

    def run_for(self, duration: float, *, max_events: int = 1_000_000) -> int:
        """Let the reactors run for ``duration`` wall-clock milliseconds."""
        if duration < 0:
            raise SimulationError("duration cannot be negative")
        time.sleep(duration / 1000.0)
        return 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every reactor (idempotent).  Nodes cannot be re-registered."""
        if self._closed:
            return
        self._closed = True
        for node in list(self._handlers):
            self._detach(node)
        for reactor in self._reactors:
            reactor.stop()

    def __enter__(self) -> "RealTransport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def last_handler_error(self) -> Optional[BaseException]:
        return self._last_handler_error

    @property
    def pending_count(self) -> int:
        """Callbacks waiting in the reactors' mailboxes."""
        return sum(reactor.pending for reactor in self._reactors)
