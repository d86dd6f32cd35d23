"""The unified tuple-space protocol: one ``Space`` over every backend.

The paper's thesis is that *one* augmented tuple-space abstraction
(``out``/``rd``/``in``/``rdp``/``inp``/``cas``) serves every coordination
construction.  :class:`Space` makes that literal for the library's three
deployment shapes — the in-process PEATS, one replicated PBFT group, and
the sharded cluster — behind a single handle produced by
:func:`repro.api.connect`:

* every operation exists in a **blocking** form (``space.rd(t)``) and a
  **future** form (``space.submit_rd(t)``) returning an
  :class:`~repro.futures.OperationFuture`;
* operations take the invoking identity as an optional ``process=``
  keyword, and :meth:`Space.bind` produces the per-process
  :class:`BoundSpace` view (the library's one
  :class:`~repro.tspace.interface.BoundView`, plus the future/watch/
  transaction forms) through which the consensus algorithms, universal
  constructions and coordination recipes run against any backend
  unmodified;
* timeouts and errors are uniform: blocking reads raise
  :class:`~repro.errors.OperationTimeoutError` (template in the message)
  on every backend, denials surface exactly as they do on the local PEATS
  (falsy ``out``/``cas``, ``None`` reads, :class:`~repro.errors.
  AccessDeniedError` from blocking reads).

Futures resolve to reply-style payloads — ``("OK", value)`` or
``("PEATS-DENIED", reason)`` — identical across backends; the blocking
forms unwrap them.  Time units remain backend time (wall-clock seconds on
the local backend, virtual milliseconds on the simulated ones); each
subclass documents its :attr:`Space.time_unit`.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Hashable, Optional

from repro.errors import (
    AccessDeniedError,
    OperationTimeoutError,
    TupleSpaceError,
)
from repro.futures import OperationFuture
from repro.notify import Subscription, WaiterHandle
from repro.peo.base import DENIED, DeniedResult
from repro.policy.invocation import Invocation
from repro.policy.monitor import Decision
from repro.replication.replica import TXN_LOCKED
from repro.tspace.interface import BoundView, TupleSpaceInterface
from repro.tuples import Entry, Template
from repro.txn.legs import check_arguments

__all__ = ["Space", "BoundSpace", "PROBE_OPERATIONS", "BLOCKING_OPERATIONS"]

#: The non-blocking operations every backend executes natively.
PROBE_OPERATIONS = ("out", "rdp", "inp", "cas")
#: The blocking reads, emulated where the backend has no server-side wait.
BLOCKING_OPERATIONS = ("rd", "in")


def _denied_result(process: Hashable, operation: str, reason: Any) -> DeniedResult:
    decision = Decision(
        allowed=False,
        invocation=Invocation(process=process, operation=operation, arguments=()),
        rule=None,
        reason=str(reason),
    )
    return DeniedResult(decision)


class _SubmitForms:
    """The per-operation ``submit_*`` spellings of the host class's
    ``submit(operation, arguments, **options)``, shared by :class:`Space`
    and its bound view."""

    def submit_out(self, entry: Entry, **options: Any) -> OperationFuture:
        return self.submit("out", (entry,), **options)

    def submit_rdp(self, template: Template, **options: Any) -> OperationFuture:
        return self.submit("rdp", (template,), **options)

    def submit_inp(self, template: Template, **options: Any) -> OperationFuture:
        return self.submit("inp", (template,), **options)

    def submit_cas(self, template: Template, entry: Entry, **options: Any) -> OperationFuture:
        return self.submit("cas", (template, entry), **options)

    def submit_rd(self, template: Template, **options: Any) -> OperationFuture:
        return self.submit("rd", (template,), **options)

    def submit_in(self, template: Template, **options: Any) -> OperationFuture:
        return self.submit("in", (template,), **options)

    def submit_transfer(
        self, take_template: Template, put_tuple: Entry, **options: Any
    ) -> OperationFuture:
        return self.submit("transfer", (take_template, put_tuple), **options)


class Space(_SubmitForms, TupleSpaceInterface):
    """Uniform handle over one tuple-space deployment.

    Subclasses supply the backend hooks (submit a probe, drive the event
    loop, read/advance the clock); the blocking API, the ``submit_*``
    family and the shared timeout model are implemented here once, so all
    backends observe the same semantics by construction.
    """

    #: Deployment shape this handle fronts: "local" | "replicated" | "sharded".
    backend: str = "abstract"
    #: Unit of ``timeout``/``latency`` values on this backend.
    time_unit: str = "units"
    #: Default budget for blocking reads when no timeout is given.
    default_blocking_timeout: float = 1_000.0
    #: Default base interval of an emulated blocking read's fallback probes.
    default_poll_interval: float = 10.0
    #: A blocking read's waiter pushes do the waking; between them the
    #: read re-probes every ``poll_backoff_cap`` base intervals, a
    #: liveness fallback (a Byzantine replica may suppress its push), not
    #: the discovery mechanism.
    poll_backoff_cap: float = 8.0
    #: How many times one operation bounced by a transaction lock
    #: (``TXN-LOCKED`` probe answers) is transparently resubmitted after
    #: lock resolution before giving up.  Locks carry ordered expirations
    #: and expired ones are force-resolved, so exhausting this bound means
    #: pathological lock churn, not a wedged transaction.
    txn_lock_retries: int = 128

    def __init__(self, obs: Any) -> None:
        """Every backend constructor calls this with its deployment's
        observability bundle."""
        #: The deployment's bundle — metrics registry, event log,
        #: monitor — whatever its shape (``enabled`` is False, and the
        #: registry private, when it was built without ``obs=``).
        self.observability = obs
        #: Live ``watch()`` subscriptions; cancelling one removes it.
        self._watches: list[Subscription] = []
        registry = obs.registry
        self._txn_metrics = (
            registry.counter("txn_committed_total", "Transactions that committed").labels(),
            registry.counter(
                "txn_aborted_total", "Transactions that aborted, by reason kind"
            ),
            registry.histogram(
                "txn_commit_latency", "Backend-time latency of txn commits"
            ).labels(),
        )

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _submit_probe(
        self, operation: str, arguments: tuple, process: Hashable
    ) -> OperationFuture:
        """Submit one non-blocking operation; returns its payload future."""

    @abc.abstractmethod
    def _drive(self, future: OperationFuture, timeout: float | None = None) -> None:
        """Advance the backend until ``future`` resolves (no-op when eager),
        outlasting ``timeout``, the operation's own."""

    @abc.abstractmethod
    def _now(self) -> float:
        """The backend clock reading (used to stamp and budget futures)."""

    @abc.abstractmethod
    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` backend-time units."""

    @abc.abstractmethod
    def snapshot(self) -> tuple[Entry, ...]:
        """All entries currently stored across the whole deployment."""

    # ------------------------------------------------------------------
    # Transaction-lock resolution
    # ------------------------------------------------------------------

    def _resolving(
        self,
        operation: str,
        submit_once: Callable[[], OperationFuture],
        process: Hashable,
    ) -> OperationFuture:
        """Wrap a probe submission with transparent ``TXN-LOCKED`` retry.

        A replica bounces any ordinary operation that touches a name held
        by an in-flight transaction with a ``(TXN-LOCKED, conflict)``
        payload instead of executing it (the bounce is itself an ordered
        op, so it ticks the lock-expiry clock).  The conflict names the
        holder — ``(txn_key, coordinator_shard, expired)`` — and this
        wrapper resolves it (:meth:`_resolve_lock`: wait for a live
        holder, force-abort an expired one at its coordinator) and
        resubmits, bounded by :attr:`txn_lock_retries`.  Callers above the
        wrapper never see the bounce: locks are invisible except as
        latency, exactly like the brief exclusive section of any other
        linearizable operation.
        """
        first = submit_once()
        if first.done and first.exception is None:
            payload = first.result()
            if not (isinstance(payload, tuple) and len(payload) == 2 and payload[0] == TXN_LOCKED):
                return first
        composite = OperationFuture(
            operation=operation,
            submitted_at=first.submitted_at,
            request_id=first.request_id,
        )
        attempts = 0

        def on_done(probe: OperationFuture) -> None:
            nonlocal attempts
            if composite.done:
                return
            if probe.exception is not None:
                composite._complete(self._now(), exception=probe.exception)
                return
            payload = probe.result()
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == TXN_LOCKED
            ):
                composite.shard = probe.shard
                if composite.request_id is None:
                    composite.request_id = probe.request_id
                composite._complete(self._now(), result=payload)
                return
            attempts += 1
            if attempts >= self.txn_lock_retries:
                composite._complete(
                    self._now(),
                    exception=TupleSpaceError(
                        f"{operation} still blocked by transaction locks after "
                        f"{attempts} resolution attempts"
                    ),
                )
                return
            self._resolve_lock(payload[1], process, retry)

        def retry() -> None:
            if composite.done:
                return
            probe = submit_once()
            probe.add_done_callback(on_done)

        first.add_done_callback(on_done)
        return composite

    def _submit_probe_resolving(
        self, operation: str, arguments: tuple, process: Hashable
    ) -> OperationFuture:
        return self._resolving(
            operation,
            lambda: self._submit_probe(operation, arguments, process),
            process,
        )

    def _resolve_lock(
        self, conflict: Any, process: Hashable, retry: Callable[[], None]
    ) -> None:
        """Backend hook: clear (or outwait) one lock conflict, then call
        ``retry``.  The default just waits one poll interval — enough for
        a live transaction to finish; the sharded backend overrides this
        to force-resolve *expired* holders at their replicated
        coordinator, which is what makes the protocol non-blocking."""
        self._schedule(self.default_poll_interval, retry)

    # ------------------------------------------------------------------
    # Future-first API
    # ------------------------------------------------------------------

    def submit(
        self,
        operation: str,
        arguments: tuple,
        *,
        process: Hashable = None,
        on_complete: Callable[[OperationFuture], None] | None = None,
        timeout: float | None = None,
        poll_interval: float | None = None,
    ) -> OperationFuture:
        """Submit any tuple-space operation, returning its future.

        ``timeout``/``poll_interval`` apply to the blocking reads (``rd``/
        ``in``) only, in backend-time units.  The future resolves to a
        reply payload (``("OK", value)`` / ``("PEATS-DENIED", reason)``);
        blocking-read futures instead fail with
        :class:`~repro.errors.OperationTimeoutError` on budget exhaustion
        and :class:`~repro.errors.AccessDeniedError` on denial, mirroring
        their blocking counterparts.  Malformed arguments raise
        :class:`~repro.errors.TupleSpaceError` before anything is sent.
        """
        arguments = tuple(arguments)
        check_arguments(operation, arguments)
        if operation not in BLOCKING_OPERATIONS and (
            timeout is not None or poll_interval is not None
        ):
            raise TupleSpaceError(
                f"timeout/poll_interval only apply to blocking reads, not {operation!r}"
            )
        if operation in PROBE_OPERATIONS:
            future = self._submit_probe_resolving(operation, arguments, process)
        elif operation == "transfer":
            take_template, put_entry = arguments
            legs = (("in", take_template), ("out", put_entry))
            future = self._submit_txn_tracked(legs, process)
        elif operation in BLOCKING_OPERATIONS:
            future = self._submit_blocking(
                operation,
                arguments[0],
                process=process,
                timeout=timeout,
                poll_interval=poll_interval,
            )
        else:
            raise TupleSpaceError(f"unknown tuple-space operation {operation!r}")
        if on_complete is not None:
            future.add_done_callback(on_complete)
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
        """Emulate a blocking read: arm a waiter, then a bounded probe chain.

        The recipe of Section 4, upgraded by :mod:`repro.notify`: first a
        per-template waiter is armed on the backend (where it supports
        one), then the non-blocking variant probes once immediately.  From
        there the read normally sleeps until an ``f + 1``-voted wake-up,
        which triggers one fresh probe — the observable result always
        comes from the normal voted read path, never from the pushed
        entry, so the semantics (and the conformance suite) are unchanged.
        Polling survives as a bounded fallback at the capped interval:
        registrations are soft state and a Byzantine replica may suppress
        its push, so the fallback — not the push — carries the liveness
        guarantee.  Everything happens through completion callbacks, so
        many blocking reads can be in flight concurrently — this is what
        lets scenario clients issue ``rd``/``in`` steps.
        """
        probe_operation = "rdp" if operation == "rd" else "inp"
        budget = self.default_blocking_timeout if timeout is None else timeout
        interval = self.default_poll_interval if poll_interval is None else poll_interval
        max_interval = interval * self.poll_backoff_cap
        future = OperationFuture(operation=operation, submitted_at=self._now())
        deadline = self._now() + budget
        # One probe in flight at a time; a wake-up that lands mid-probe is
        # remembered and serviced as soon as the in-flight probe resolves.
        probing = False
        wake_pending = False
        # Whether the in-flight probe was triggered by a push wake-up: a
        # wake followed by a *miss* means the tuple moved — possibly
        # consumed by a transaction committing on a different shard than
        # the waiter that pushed — so the soft waiter registrations are
        # refreshed before going back to sleep (see WaiterHandle.rearm).
        wake_probe = False
        # Generation token of the scheduled fallback: a wake-triggered
        # probe reschedules the fallback, and the superseded timer must
        # not spawn a second concurrent probe chain.
        epoch = 0

        def attempt() -> None:
            nonlocal probing
            if future.done or probing:
                return
            probing = True
            probe = self._submit_probe_resolving(probe_operation, (template,), process)
            if future.request_id is None:
                future.request_id = probe.request_id
            probe.add_done_callback(resolve)

        def fallback(token: int) -> None:
            if token == epoch:
                attempt()

        def schedule_next(delay: float) -> None:
            nonlocal epoch
            epoch += 1
            token = epoch
            self._schedule(delay, lambda: fallback(token))

        def resolve(probe: OperationFuture) -> None:
            nonlocal probing, wake_pending, wake_probe
            was_wake = wake_probe
            wake_probe = False
            probing = False
            if future.done:
                return
            now = self._now()
            if probe.exception is not None:
                handle.cancel()
                future._complete(now, exception=probe.exception)
                return
            status, value = probe.result()
            if status == DENIED:
                handle.cancel()
                future._complete(
                    now,
                    exception=AccessDeniedError(
                        str(value), process=process, operation=operation
                    ),
                )
                return
            if value is not None:
                future.shard = probe.shard
                handle.cancel()
                future._complete(now, result=("OK", value))
                return
            if now >= deadline:
                handle.cancel()
                future._complete(
                    now,
                    exception=OperationTimeoutError(
                        f"no tuple matching {template!r} appeared within "
                        f"{budget} {self.time_unit} on the {self.backend} backend"
                    ),
                )
                return
            if was_wake:
                # Woken, re-probed, missed: the match was consumed out from
                # under us (a competing in_, or a transactional in_ leg
                # committing on another shard).  The registrations behind
                # the wake are soft state that may meanwhile have been shed
                # (state transfer, restart), so refresh them — otherwise
                # this read silently degrades to the capped-interval
                # polling fallback for the rest of its life.
                handle.rearm()
            if wake_pending:
                # A push arrived while this probe was in flight (probably
                # racing another consumer for the same tuple): re-probe
                # right away instead of sleeping on it.
                wake_pending = False
                wake_probe = True
                attempt()
                return
            # Pushes do the waking; the chain only provides the bounded
            # liveness fallback, never past the deadline.
            schedule_next(min(max_interval, deadline - now))

        def wake(entry: Any, event: Any) -> None:
            # f+1 replicas vouched a match landed; re-verify through the
            # normal voted probe path (one round trip) rather than
            # trusting the pushed entry, which may already be consumed.
            nonlocal wake_pending, wake_probe
            if future.done:
                return
            if probing:
                wake_pending = True
                return
            wake_probe = True
            attempt()

        # Arm *before* the first probe: an insert landing between the
        # probe's empty answer and a later registration would otherwise
        # be invisible until the fallback poll.
        handle = self._arm(template, operation, process, lambda _shard: wake)
        attempt()
        return future

    def _arm(
        self,
        template: Any,
        operation: str,
        process: Hashable,
        on_event: Callable[[Optional[int]], Callable[[Any, Any], None]],
    ) -> WaiterHandle:
        """Arm one waiter on every replica group that must hold one for a
        checked ``template`` (the networked backend's ``_waiter_groups``;
        the local backend overrides both callers).

        Each group's pushes vote in their own ``f + 1`` tally, and
        ``on_event(shard)`` builds the ``(entry, event)`` callback that
        group's voted wake-ups fire inside the event loop.  Returns one
        handle over every registration.
        """
        groups = self._waiter_groups(template)  # type: ignore[attr-defined]
        client = self.service.client(process)
        return WaiterHandle(
            client,
            tuple(
                client.arm_waiter(template, operation, on_event(shard), replica_ids=ids).waiter_id
                for shard, ids in groups
            ),
        )

    # ------------------------------------------------------------------
    # Blocking API (TupleSpaceInterface, plus the invoking process)
    # ------------------------------------------------------------------

    def _execute(self, operation: str, arguments: tuple, process: Hashable) -> tuple[str, Any]:
        check_arguments(operation, arguments)
        future = self._submit_probe_resolving(operation, arguments, process)
        self._drive(future)
        return future.result()

    def out(self, entry: Entry, *, process: Hashable = None) -> Any:
        status, value = self._execute("out", (entry,), process)
        if status == DENIED:
            return _denied_result(process, "out", value)
        return value

    def rdp(self, template: Template, *, process: Hashable = None) -> Optional[Entry]:
        status, value = self._execute("rdp", (template,), process)
        if status == DENIED:
            return None
        return value

    def inp(self, template: Template, *, process: Hashable = None) -> Optional[Entry]:
        status, value = self._execute("inp", (template,), process)
        if status == DENIED:
            return None
        return value

    def cas(
        self, template: Template, entry: Entry, *, process: Hashable = None
    ) -> tuple[Any, Optional[Entry]]:
        status, value = self._execute("cas", (template, entry), process)
        if status == DENIED:
            return _denied_result(process, "cas", value), None
        inserted, existing = value
        return inserted, existing

    def rd(
        self,
        template: Template,
        *,
        timeout: float | None = None,
        poll_interval: float | None = None,
        process: Hashable = None,
    ) -> Entry:
        return self._blocking_read(
            "rd", template, timeout=timeout, poll_interval=poll_interval, process=process
        )

    def in_(
        self,
        template: Template,
        *,
        timeout: float | None = None,
        poll_interval: float | None = None,
        process: Hashable = None,
    ) -> Entry:
        return self._blocking_read(
            "in", template, timeout=timeout, poll_interval=poll_interval, process=process
        )

    def _blocking_read(
        self,
        operation: str,
        template: Template,
        *,
        timeout: float | None,
        poll_interval: float | None,
        process: Hashable,
    ) -> Entry:
        check_arguments(operation, (template,))
        budget = self.default_blocking_timeout if timeout is None else timeout
        future = self._submit_blocking(
            operation, template, process=process, timeout=budget, poll_interval=poll_interval
        )
        self._drive(future, budget)
        status, value = future.result()
        return value

    # ------------------------------------------------------------------
    # Transactions (repro.txn)
    # ------------------------------------------------------------------

    def transact(self, process: Hashable = None) -> Any:
        """Open a transaction: a staged multi-leg atomic operation.

        Returns a :class:`repro.txn.Txn` handle.  Stage legs by chaining
        ``.out(entry)`` / ``.rd(template)`` / ``.in_(template)`` /
        ``.cas(template, entry)`` / ``.nix(template)``, then ``.commit()``
        — all legs take effect at one linearization point, or none do (the
        first refusing leg is reported in the abort reason).  On the
        sharded backend legs spanning several shards commit through a
        replicated-coordinator atomic commit; the protocol is non-blocking
        — every lock carries an ordered expiration, and any blocked client
        can force an expired transaction to resolve at its (replicated,
        hence crash-tolerant) coordinator group.
        """
        from repro.txn.manager import Txn

        return Txn(self, process)

    def transfer(
        self, take_template: Template, put_tuple: Entry, *, process: Hashable = None
    ) -> Any:
        """Atomically consume a match of ``take_template`` and insert
        ``put_tuple`` — the canonical two-leg (often two-shard)
        transaction.  Returns the committed :class:`~repro.txn.TxnOutcome`
        or raises :class:`~repro.errors.TxnAbortedError` (no match on the
        take side, a policy denial on either leg)."""
        from repro.txn.manager import Txn

        txn = Txn(self, process).in_(take_template).out(put_tuple)
        return txn.commit().raise_for_abort()

    def _submit_txn(self, legs: tuple, process: Hashable) -> OperationFuture:
        """Backend hook: submit one normalized leg sequence atomically."""
        raise TupleSpaceError(
            f"the {self.backend} backend does not support transactions"
        )

    def _submit_txn_tracked(self, legs: tuple, process: Hashable) -> OperationFuture:
        """Submit a transaction and account its outcome (stats + metrics)."""
        from repro.txn.legs import normalize_legs

        future = self._submit_txn(normalize_legs(legs), process)
        future.add_done_callback(self._record_txn)
        return future

    @staticmethod
    def _txn_abort_label(reason: Any) -> str:
        # Bounded label space: only the reason *kind* (its leading tag),
        # never the payload — policy details and lock keys are unbounded.
        if isinstance(reason, tuple) and reason and isinstance(reason[0], str):
            return reason[0]
        return type(reason).__name__ if reason is not None else "unknown"

    def _record_txn(self, future: OperationFuture) -> None:
        """Completion hook of every tracked transaction: passive accounting
        only — it never touches the event loop, so same-seed traces are
        byte-identical with or without transaction instrumentation."""
        committed, aborted, latency = self._txn_metrics
        if future.exception is not None:
            aborted.labels(reason=type(future.exception).__name__).inc()
            return
        payload = future.result()
        value = payload[1] if isinstance(payload, tuple) and len(payload) == 2 else None
        if isinstance(value, tuple) and value and value[0] == "committed":
            committed.inc()
            elapsed = future.latency
            if elapsed is not None:
                latency.observe(elapsed)
            return
        reason = value[1] if isinstance(value, tuple) and len(value) > 1 else None
        aborted.labels(reason=self._txn_abort_label(reason)).inc()

    # ------------------------------------------------------------------
    # Reactive API (repro.notify)
    # ------------------------------------------------------------------

    def watch(
        self,
        template: Template,
        *,
        process: Hashable = None,
        buffer: int = 256,
        on_event: Callable[[Any], None] | None = None,
    ) -> Subscription:
        """Subscribe to every future insert matching ``template``.

        Returns a :class:`~repro.notify.Subscription`: iterate it, call
        ``.next(timeout=...)``, drain with ``.poll()`` or pass
        ``on_event`` for callback delivery.  On the replicated backends an
        event is delivered only after ``f + 1`` distinct replicas push
        matching notifications for the same insert, and the access policy
        is applied at notification time with ``process``'s identity — a
        subscriber never sees a tuple the policy would hide from its
        direct ``rdp``.  Watching observes, never consumes: taking the
        tuple is still an explicit ``in``/``inp``.  The subscription's
        buffer is bounded (``buffer`` events; overflow drops the oldest
        and counts them on ``subscription.dropped``) and
        ``subscription.cancel()`` — or closing the space — disarms it on
        every replica.
        """
        check_arguments("rdp", (template,))
        subscription = Subscription(
            template, buffer=buffer, on_event=on_event, clock=self._now
        )
        disarm = self._register_watch(subscription, process)

        def cancel() -> None:
            disarm()
            self._watches.remove(subscription)

        subscription._attach(cancel, self._watch_wait)
        self._watches.append(subscription)
        return subscription

    def _register_watch(
        self, subscription: Subscription, process: Hashable
    ) -> Callable[[], None]:
        """Wire ``subscription`` to the notification channel and return
        the canceller that disarms it everywhere.  Events carry the
        pushing group's shard (``None`` off the sharded backend) and merge
        in network-delivery order (deterministic under the seeded
        transports)."""
        return self._arm(
            subscription.template,
            "watch",
            process,
            lambda shard: lambda entry, event: subscription.deliver(entry, event, shard=shard),
        ).cancel

    @abc.abstractmethod
    def _watch_wait(self, subscription: Subscription, timeout: float | None) -> None:
        """Backend hook, what ``Subscription.next`` blocks on: return once
        ``subscription`` holds an event or is cancelled, or after at most
        ``timeout`` (default: the blocking-read budget)."""

    # ------------------------------------------------------------------
    # Per-process views
    # ------------------------------------------------------------------

    def bind(self, process: Hashable) -> "BoundSpace":
        """A view through which ``process`` issues its operations."""
        return BoundSpace(self, process)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One deployment-wide statistics snapshot, uniform across backends.

        Always contains ``backend``, ``time_unit`` and ``txn``; adds
        ``network`` (the transport's counter dict), ``metrics``/``tracing``
        when an observability bundle is attached, and whatever the
        backend's :meth:`_stats_extra` contributes (tuple counts, per-node
        ordering progress, per-shard statistics, the clients' summed
        ``client_statistics()``).
        """
        report: dict[str, Any] = {"backend": self.backend, "time_unit": self.time_unit}
        network = getattr(self, "network", None)
        if network is not None:
            report["network"] = network.statistics
        obs = self.observability
        if obs.enabled:
            report.update(obs.snapshot())  # metrics, tracing, flight, health
            service = getattr(self, "service", None)
            if obs.health.enabled and service is not None and hasattr(service, "nodes"):
                # One health evaluation per stats() call: probes read only
                # state the deployment already tracks (no extra messages),
                # and the monitor's hysteresis smooths the cadence.
                findings = obs.health.check(service)
            else:
                findings = obs.health.active()
            report["health"] = [finding.as_dict() for finding in findings]
        committed, aborted, latency = self._txn_metrics
        report["txn"] = {
            "committed": int(committed.value),
            "aborted": {
                dict(key)["reason"]: int(child.value) for key, child in aborted.samples()
            },
            "commit_latency": {
                "count": latency.count,
                "total": latency.sum,
                "max": latency.max,
            },
        }
        report.update(self._stats_extra())
        return report

    def _stats_extra(self) -> dict[str, Any]:
        """Backend-specific additions to :meth:`stats` (override freely)."""
        return {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent).

        The in-process and simulated backends hold none — this is a
        no-op there.  On a real transport (:mod:`repro.net`) it stops
        the reactor threads, so handles built with
        ``connect(..., transport="asyncio"/"tcp")`` should be closed (or
        used as context managers) when done.
        """
        for subscription in list(self._watches):
            subscription.cancel()
        network = getattr(self, "network", None)
        if network is not None:
            network.close()

    def __enter__(self) -> "Space":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(backend={self.backend!r})"


class BoundSpace(_SubmitForms, BoundView):
    """Per-process view of a :class:`Space`: the classic
    :class:`~repro.tspace.interface.BoundView` (so algorithms written
    against ``TupleSpaceInterface`` run on any backend) plus the
    ``submit_*`` family, ``watch`` and the transaction forms with the
    process pre-bound."""

    def submit(self, operation: str, arguments: tuple, **options: Any) -> OperationFuture:
        return self._space.submit(operation, arguments, process=self._process, **options)

    def watch(self, template: Template, **options: Any) -> Subscription:
        return self._space.watch(template, process=self._process, **options)

    def transact(self) -> Any:
        return self._space.transact(process=self._process)

    def transfer(self, take_template: Template, put_tuple: Entry) -> Any:
        return self._space.transfer(take_template, put_tuple, process=self._process)

    def __repr__(self) -> str:
        return f"BoundSpace(backend={self._space.backend!r}, process={self._process!r})"
