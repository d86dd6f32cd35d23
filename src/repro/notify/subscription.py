"""Client-side notify machinery: the armed waiter and the watch subscription.

:class:`ClientWaiter` is one armed waiter id: what it was armed for, the
replicas it was armed on, and the client's one ``f + 1``
:class:`~repro.replication.tally.Tally` its
:class:`~repro.replication.messages.Notify` pushes vote in — one round per
inserted entry (one request may insert several matches), the pushed entry
hashed on receipt and checked against
the digest the push claims.  The entry is released exactly once, when
``f + 1`` **distinct** target replicas vouch for it: at least one of them
is correct, so a Byzantine replica can neither forge a match nor replay
an old one.

:class:`Subscription` is the streaming handle ``Space.watch`` returns:
a bounded event buffer (oldest events are dropped and counted when the
consumer lags) with three consumption forms — non-blocking :meth:`poll`,
blocking :meth:`next`, and iteration — plus an optional callback fired at
delivery time.  Blocking consumption goes through the hook its backend
attached: the simulated backends pump the virtual-time event loop, the
local and real-transport ones call :meth:`Subscription.wait`, which waits
on a condition that every delivery and the cancel notify — the
subscription itself never reads a clock.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - repro.replication imports this package
    from repro.replication.tally import Tally

__all__ = ["ClientWaiter", "WaiterHandle", "WatchEvent", "Subscription"]


@dataclasses.dataclass(frozen=True)
class WatchEvent:
    """One delivered match: the entry, its provenance and the local time."""

    entry: Any
    #: The inserting request's ``(client, request_id)`` key (``None`` on
    #: the local backend, where inserts are not requests).
    event: Optional[tuple]
    #: Backend-clock time of delivery to this subscriber.
    at: float
    #: Owning shard on the sharded backend, else ``None``.
    shard: Optional[int] = None


class WaiterHandle:
    """Cancellable handle over the waiters one blocking read or watch
    armed on a client, one per replica group (idempotent cancel).

    ``rearm`` re-broadcasts every registration.  Registrations are soft
    state (they survive neither a replica's state transfer nor a
    restart), so a blocking read whose wake-triggered re-probe *missed*
    re-arms before going back to sleep: the miss is evidence the tuple
    moved — possibly consumed by a transaction on a different shard than
    the wake came from, whose registrations are the stale ones — and the
    cheap re-registration restores the push path for the next insert
    instead of silently degrading to the capped polling fallback.
    """

    __slots__ = ("client", "waiter_ids", "cancelled")

    def __init__(self, client: Any, waiter_ids: tuple[int, ...]) -> None:
        self.client = client
        self.waiter_ids = waiter_ids
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        for waiter_id in self.waiter_ids:
            self.client.disarm_waiter(waiter_id)

    def rearm(self) -> None:
        """Refresh the registrations on every target replica (idempotent
        server-side)."""
        if not self.cancelled:
            for waiter_id in self.waiter_ids:
                self.client.rearm_waiter(waiter_id)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"WaiterHandle(ids={self.waiter_ids}, {state})"


class ClientWaiter:
    """One armed waiter id on one client, and the tally its pushes vote in."""

    __slots__ = (
        "waiter_id",
        "template",
        "operation",
        "targets",
        "tally",
        "on_event",
        "armed_at",
        "woken",
    )

    def __init__(
        self,
        waiter_id: int,
        template: Any,
        operation: str,
        targets: tuple[Hashable, ...],
        tally: "Tally",
        *,
        on_event: Callable[[Any, tuple], None],
        armed_at: float,
    ) -> None:
        self.waiter_id = waiter_id
        self.template = template
        self.operation = operation
        # Kept ordered (not a set): cancellation re-broadcasts to these and
        # iteration order must be deterministic for same-seed replay.
        self.targets = tuple(targets)
        #: ``Notify`` pushes vote here, one round per ``(event, entry
        #: digest)``: one request may insert several matching entries.
        self.tally = tally
        self.on_event = on_event
        self.armed_at = armed_at
        #: Set once the first vote completes (wake-latency is observed once).
        self.woken = False

    @property
    def pending_votes(self) -> int:
        return self.tally.pending

    def __repr__(self) -> str:
        return (
            f"ClientWaiter(id={self.waiter_id}, op={self.operation!r}, "
            f"pending={self.tally.pending})"
        )


class Subscription:
    """Streaming handle over one ``Space.watch(template)`` registration."""

    def __init__(
        self,
        template: Any,
        *,
        buffer: int = 256,
        on_event: Callable[[WatchEvent], None] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if buffer < 1:
            raise ValueError("subscription buffer must hold at least one event")
        self.template = template
        self._lock = threading.Lock()
        #: Notified on every delivery and on cancel.
        self._changed = threading.Condition(self._lock)
        self._buffer: "collections.deque[WatchEvent]" = collections.deque(maxlen=buffer)
        self._dropped = 0
        self._delivered = 0
        self._active = True
        self._on_event = on_event
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._canceller: Callable[[], None] | None = None
        self._block: Callable[["Subscription", Optional[float]], None] | None = None

    # ------------------------------------------------------------------
    # Backend attachment (called by the owning Space, not by users)
    # ------------------------------------------------------------------

    def _attach(
        self,
        canceller: Callable[[], None],
        block: Callable[["Subscription", Optional[float]], None],
    ) -> None:
        self._canceller = canceller
        self._block = block

    def deliver(
        self, entry: Any, event: Optional[tuple], *, shard: Optional[int] = None
    ) -> None:
        """Buffer one voted match (backend plumbing calls this)."""
        if not self._active:
            return
        item = WatchEvent(entry=entry, event=event, at=self._clock(), shard=shard)
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self._dropped += 1
            self._buffer.append(item)
            self._delivered += 1
            self._changed.notify_all()
        if self._on_event is not None:
            self._on_event(item)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    @property
    def dropped(self) -> int:
        """Events discarded because the buffer was full (consumer lagging)."""
        return self._dropped

    @property
    def delivered(self) -> int:
        """Total events delivered into this subscription."""
        return self._delivered

    def __len__(self) -> int:
        return len(self._buffer)

    def poll(self) -> list[WatchEvent]:
        """Drain and return every currently buffered event (non-blocking)."""
        with self._lock:
            drained = list(self._buffer)
            self._buffer.clear()
        return drained

    def next(self, timeout: float | None = None) -> Optional[WatchEvent]:
        """The next event, waiting up to ``timeout`` backend-time units.

        With ``timeout=None`` the owning backend's default blocking budget
        applies (waiting forever is never the default on any backend).
        Returns ``None`` when no event arrived in time or the subscription
        was cancelled.
        """
        with self._lock:
            if self._buffer:
                return self._buffer.popleft()
        if not self._active or self._block is None:
            return None
        self._block(self, timeout)
        with self._lock:
            if self._buffer:
                return self._buffer.popleft()
        return None

    @property
    def settled(self) -> bool:
        """An event is buffered, or none will come (cancelled)."""
        return bool(self._buffer) or not self._active

    def wait(self, seconds: float) -> bool:
        """Block the calling thread until :attr:`settled`, up to ``seconds``
        of wall-clock time; returns whether it settled."""
        with self._changed:
            return self._changed.wait_for(lambda: self.settled, seconds)

    def __iter__(self) -> Iterator[WatchEvent]:
        """Yield events as they arrive; stops when :meth:`next` yields
        nothing (cancelled, or the backend's wait budget lapsed idle)."""
        while True:
            item = self.next()
            if item is None:
                return
            yield item

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def cancel(self) -> None:
        """Disarm the subscription (idempotent); buffered events remain
        consumable via :meth:`poll`."""
        with self._lock:
            if not self._active:
                return
            self._active = False
            self._changed.notify_all()
        if self._canceller is not None:
            self._canceller()

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()

    def __repr__(self) -> str:
        state = "active" if self._active else "cancelled"
        return (
            f"Subscription(template={self.template!r}, {state}, "
            f"buffered={len(self._buffer)}, dropped={self._dropped})"
        )
