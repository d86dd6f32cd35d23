"""The local (in-process) backend of the unified API.

:class:`LocalSpace` fronts a single-address-space
:class:`~repro.peo.peats.PEATS`.  Operations execute synchronously, so
every future this backend hands out is already resolved when ``submit``
returns — the *eager* end of the future spectrum, with the same payload
shapes and exception model as the networked backends (it shares the
payload-level execution path with the replica state machine via
:meth:`~repro.peo.peats.PEATS.execute_operation`).

Blocking reads and watches wait on condition variables — the tuple
space's insert condition, the subscription's — in wall-clock seconds;
this is the only backend whose :attr:`~repro.api.space.Space.time_unit`
is real time.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Hashable

from repro.errors import AccessDeniedError, OperationTimeoutError
from repro.futures import OperationFuture
from repro.api.space import Space
from repro.notify import Subscription
from repro.peo.base import DENIED
from repro.peo.peats import PEATS
from repro.policy.invocation import Invocation
from repro.tuples import Entry, Template, matches

__all__ = ["LocalSpace"]


class LocalSpace(Space):
    """Unified handle over an in-process :class:`~repro.peo.peats.PEATS`."""

    backend = "local"
    time_unit = "wall-clock s"
    #: Local blocking reads may only wait for a concurrent *thread* to
    #: produce the tuple; a short default keeps single-threaded callers
    #: from hanging forever (pass ``timeout=`` explicitly for longer waits).
    default_blocking_timeout = 5.0

    def __init__(self, peats: PEATS) -> None:
        super().__init__(peats.obs)
        self._peats = peats
        self._request_ids = itertools.count()

    @property
    def service(self) -> PEATS:
        """The underlying deployment (here: the PEATS itself)."""
        return self._peats

    @property
    def peats(self) -> PEATS:
        return self._peats

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def _submit_probe(
        self, operation: str, arguments: tuple, process: Hashable
    ) -> OperationFuture:
        future = OperationFuture(
            operation=operation,
            submitted_at=self._now(),
            request_id=next(self._request_ids),
        )
        payload = self._peats.execute_operation(operation, arguments, process=process)
        future._complete(self._now(), result=payload)
        return future

    def _submit_blocking(
        self,
        operation: str,
        template: Template,
        *,
        process: Hashable,
        timeout: float | None,
        poll_interval: float | None,
    ) -> OperationFuture:
        """Blocking reads run eagerly as the Section 4 recipe.

        The answer comes from the non-blocking probe (``rdp`` for ``rd``,
        ``inp`` for ``in``), so a policy that grants the probe grants the
        blocking form too, exactly as on the replicated backends.  Between
        probes the thread waits on the tuple space's insert condition,
        outside the PEATS lock, so an insert wakes it and nothing polls.
        There is no event loop, so the future is resolved (or failed) —
        :class:`~repro.errors.AccessDeniedError`,
        :class:`~repro.errors.OperationTimeoutError` — before it returns.
        """
        probe_operation = "rdp" if operation == "rd" else "inp"
        budget = self.default_blocking_timeout if timeout is None else timeout
        space = self._peats._policy_state()
        future = OperationFuture(
            operation=operation,
            submitted_at=self._now(),
            request_id=next(self._request_ids),
        )
        deadline = self._now() + budget
        while True:
            # Read before the probe: an insert racing the probe's miss
            # then ends the wait at once instead of being slept through.
            seen = space.inserts
            status, value = self._peats.execute_operation(
                probe_operation, (template,), process=process
            )
            if status == DENIED:
                future._complete(
                    self._now(),
                    exception=AccessDeniedError(
                        str(value), process=process, operation=operation
                    ),
                )
                return future
            if value is not None:
                future._complete(self._now(), result=("OK", value))
                return future
            remaining = deadline - self._now()
            if remaining <= 0:
                future._complete(
                    self._now(),
                    exception=OperationTimeoutError(
                        f"no tuple matching {template!r} appeared within "
                        f"{budget} {self.time_unit} on the {self.backend} backend"
                    ),
                )
                return future
            space.wait_for_insert(seen, remaining)

    def _submit_txn(self, legs: tuple, process: Hashable) -> OperationFuture:
        """Local transactions resolve eagerly under the PEATS object lock
        — the resolve/apply cycle is one critical section, the same
        linearization-point atomicity the ordered ``txn_exec`` request
        gives the replicated deployments."""
        future = OperationFuture(
            operation="txn",
            submitted_at=self._now(),
            request_id=next(self._request_ids),
        )
        payload = self._peats.execute_transaction(legs, process=process)
        future._complete(self._now(), result=payload)
        return future

    def _register_watch(self, subscription: Subscription, process: Hashable):
        """Local watch: an insert listener on the underlying tuple space.

        The access policy is applied at delivery time with the watcher's
        identity and the ``rdp`` probe — identical to the replicated
        backends' notification-time check — so a subscriber never sees a
        tuple the policy would hide from its direct read.  Local inserts
        are not client requests, so events carry ``event=None``.
        """
        template = subscription.template
        if isinstance(template, Entry):
            template = template.to_template()
        peats = self._peats
        space = peats._policy_state()

        def on_insert(entry: Entry) -> None:
            if not subscription.active or not matches(entry, template):
                return
            invocation = Invocation(process=process, operation="rdp", arguments=(template,))
            if not peats.monitor.authorize(invocation, space).allowed:
                return
            subscription.deliver(entry, None)

        space.add_insert_listener(on_insert)
        return lambda: space.remove_insert_listener(on_insert)

    def _watch_wait(self, subscription: Subscription, timeout: float | None) -> None:
        """Wait for a concurrent thread's insert to be delivered."""
        subscription.wait(self.default_blocking_timeout if timeout is None else timeout)

    def _drive(self, future: OperationFuture, timeout: float | None = None) -> None:
        """Local futures resolve eagerly; there is nothing to pump."""

    def _now(self) -> float:
        return time.monotonic()

    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        raise NotImplementedError(
            "the local backend resolves futures eagerly and never schedules"
        )  # pragma: no cover - _submit_blocking is overridden above

    def snapshot(self) -> tuple[Entry, ...]:
        return self._peats.snapshot()

    def __contains__(self, item: object) -> bool:
        """Answered by the store's index, without copying the space."""
        return item in self._peats

    def _stats_extra(self) -> dict:
        return {"tuples": len(self._peats), "policy": self._peats.policy.name}

    def __repr__(self) -> str:
        return f"LocalSpace(policy={self._peats.policy.name!r}, size={len(self._peats)})"
