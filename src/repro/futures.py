"""Backend-agnostic operation futures.

:class:`OperationFuture` represents one tuple-space operation in flight
and is the currency of the unified :mod:`repro.api` layer: every backend's
``submit_*`` methods return one, whether the operation resolves eagerly
(the local in-process PEATS), through an ``f + 1`` reply vote (one
replicated PBFT group), or through a cross-shard scatter-gather (the
sharded cluster).

The class generalises what used to be the replicated client's
``PendingRequest``: the future mechanics — result/exception storage,
latency accounting, completion callbacks — live here, and
:class:`repro.replication.client.PendingRequest` extends them with the
request/retransmission machinery only the networked client needs.

Time units are backend time: the simulated backends stamp
``submitted_at``/``completed_at`` with the network's virtual clock
(milliseconds), the local backend with a wall-clock monotonic reading
(seconds).  ``latency`` is therefore comparable only within one backend.

On the real transports (:mod:`repro.net`) operations complete on
background reactor threads, so the future doubles as a cross-thread
waiter: :meth:`OperationFuture.wait` blocks a plain thread until
completion (how ``Transport.settle`` waits out a blocking call, with no
polling), and :meth:`OperationFuture.as_asyncio` mirrors the future into
an :class:`asyncio.Future` on a caller-chosen event loop.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Optional

from repro.errors import PendingOperationError

__all__ = ["OperationFuture"]


class OperationFuture:
    """A tuple-space operation in flight: a future with completion callbacks.

    The resolved value is a reply-style payload — an ``("OK", value)`` or
    ``("PEATS-DENIED", reason)`` pair — identical across backends, which is
    what makes the conformance suite's observable-equivalence checks
    possible.  Callbacks registered with :meth:`add_done_callback` fire
    synchronously at completion (immediately when already done).
    """

    __slots__ = (
        "operation",
        "request_id",
        "shard",
        "submitted_at",
        "completed_at",
        "done",
        "_result",
        "_exception",
        "_callbacks",
        "_mutex",
    )

    def __init__(
        self,
        operation: str = "",
        submitted_at: float = 0.0,
        *,
        request_id: Optional[int] = None,
    ) -> None:
        #: The tuple-space operation this future resolves ("out", "rdp", ...).
        self.operation = operation
        #: Backend-assigned id of the underlying request (``None`` until one
        #: exists — composite futures adopt their first sub-request's id).
        self.request_id = request_id
        #: Shard that answered the operation (``None`` when unsharded or
        #: still in flight; a scatter-gather sets it to the winning shard).
        self.shard: Optional[int] = None
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self.done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["OperationFuture"], None]] = []
        # Guards the done/callback handshake: on the real transports a
        # future completes on a reactor thread while another thread may be
        # registering a waiter.  Uncontended on the single-threaded sim.
        self._mutex = threading.Lock()

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    @property
    def latency(self) -> Optional[float]:
        """Backend-time latency, or ``None`` while in flight."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def result(self) -> Any:
        """The resolved payload; raises if failed or still in flight."""
        if not self.done:
            raise PendingOperationError(
                f"operation {self.operation!r} (request {self.request_id!r}) "
                "is still in flight"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def add_done_callback(self, callback: Callable[["OperationFuture"], None]) -> None:
        """Call ``callback(self)`` on completion (immediately if already done)."""
        with self._mutex:
            if not self.done:
                self._callbacks.append(callback)
                return
        callback(self)

    def wait(self, timeout: float | None = None) -> bool:
        """Block the calling thread until the operation completes.

        Returns whether the future is done (``False`` on timeout, which is
        in **wall-clock seconds** like :meth:`threading.Event.wait`).  Only
        meaningful on backends that progress in the background (the real
        transports); on the virtual-time simulation nothing advances while
        a thread sleeps, so drive the network instead.
        """
        if self.done:
            return True
        event = threading.Event()
        self.add_done_callback(lambda _future: event.set())
        event.wait(timeout)
        return self.done

    def as_asyncio(
        self, loop: asyncio.AbstractEventLoop | None = None
    ) -> "asyncio.Future[Any]":
        """An :class:`asyncio.Future` mirroring this operation on ``loop``.

        The mirror resolves (threadsafely) with the same result or
        exception; cancelling the mirror detaches it — the tuple-space
        operation itself is already in flight and cannot be recalled, so
        cancellation only means "stop telling me about it".  ``loop``
        defaults to the running loop.
        """
        target = loop if loop is not None else asyncio.get_running_loop()
        mirror: asyncio.Future[Any] = target.create_future()

        def resolve(future: "OperationFuture") -> None:
            def apply() -> None:
                if mirror.cancelled():
                    return
                if future._exception is not None:
                    mirror.set_exception(future._exception)
                else:
                    mirror.set_result(future._result)

            target.call_soon_threadsafe(apply)

        self.add_done_callback(resolve)
        return mirror

    def _complete(
        self, now: float, result: Any = None, exception: BaseException | None = None
    ) -> None:
        with self._mutex:
            if self.done:
                return
            # Publish the payload before the ``done`` flag: lock-free
            # readers (``result()`` from another thread) check ``done``
            # first, so the flag must come last.
            self.completed_at = now
            self._result = result
            self._exception = exception
            self.done = True
            callbacks, self._callbacks = self._callbacks, []
        # Every callback runs even when an earlier one raises — a bad
        # callback must not strand a later-registered waiter (wait()'s
        # event, an as_asyncio mirror).  The first exception is re-raised
        # afterwards so resolvers still see it.
        error: BaseException | None = None
        for callback in callbacks:
            try:
                callback(self)
            except BaseException as exc:  # noqa: BLE001 - isolate, then re-raise
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def __repr__(self) -> str:
        state = "done" if self.done else "in-flight"
        return (
            f"{type(self).__name__}(operation={self.operation!r}, "
            f"request_id={self.request_id!r}, {state})"
        )
