"""The sharded backend of the unified API, with cross-shard scatter-gather.

:class:`ShardedSpace` fronts a :class:`~repro.cluster.service.ShardedPEATS`.
Concrete-name operations route to the owning replica group exactly like the
:class:`~repro.cluster.client.ShardedClient`; what is new — and only
expressible at this layer, which owns routing, futures and the shared
error model at once — is the ROADMAP's **scatter-gather** for wildcard-name
templates:

* wildcard-name ``rdp`` broadcasts the probe to *every* replica group (one
  ``f + 1``-voted sub-request per group, so each group's answer is already
  Byzantine-safe), then deterministically answers from the **lowest shard
  id with a match**;
* wildcard-name ``inp`` runs the same non-destructive read phase, then
  retries destructively **on the winning shard only**, so removal stays a
  single-shard atomic operation.  If the destructive retry loses the race
  (another client removed the tuple between the probe and the take), the
  read phase restarts, up to :attr:`ShardedSpace.max_inp_rounds` rounds.

The determinism rule, in full: per round, answers are ordered by shard id;
the winner is the lowest shard whose voted answer is an ``OK`` match; with
no match anywhere, a denial from the lowest denying shard is surfaced,
else the result is ``None``.  All remaining nondeterminism is the seeded
network's, so a scenario replay returns identical results and winning
shards.

Wildcard-name and cross-shard ``cas`` *do* need a cross-group atomic
commit — and now get one, from :mod:`repro.txn`: the wildcard form first
runs an optimistic scatter-gather read (a visible match anywhere answers
``(False, match)`` with no transaction at all), then decides through a
transaction staging a ``nix`` leg (required absence) on every shard plus
the ``cas`` leg on the entry's shard; the cross-shard concrete form stages
``nix`` + ``out``.  Operations bounced by a transaction lock return a
``TXN-LOCKED`` payload, which the :class:`~repro.api.space.Space` layer
resolves transparently (waiting out live holders, force-aborting expired
ones at their replicated coordinator — see :meth:`ShardedSpace.
_resolve_lock`).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.errors import ReplicationError
from repro.futures import OperationFuture
from repro.api.space import NetworkedSpace
from repro.cluster.client import ShardedClient
from repro.cluster.service import ShardedPEATS
from repro.peo.base import DENIED
from repro.replication.replica import TXN_LOCKED
from repro.tuples import Entry, Template
from repro.tuples.fields import is_defined

__all__ = ["ShardedSpace"]


class ShardedSpace(NetworkedSpace):
    """Unified handle over a sharded cluster of PBFT replica groups."""

    backend = "sharded"
    _service: ShardedPEATS
    #: Read-then-take rounds a wildcard ``inp`` attempts before conceding
    #: the race and answering ``None``.
    max_inp_rounds = 8

    def __init__(self, service: ShardedPEATS) -> None:
        super().__init__(service)
        registry = service.obs.registry
        self._obs_scatter_rounds = registry.counter(
            "cluster_scatter_rounds_total",
            "Wildcard-probe rounds fanned out across every shard",
        ).labels()
        self._obs_scatter_probes = registry.counter(
            "cluster_scatter_probes_total",
            "Individual per-group probes issued by scatter-gather rounds",
        ).labels()

    @property
    def n_shards(self) -> int:
        return self._service.n_shards

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def _submit_probe(
        self, operation: str, arguments: tuple, process: Hashable
    ) -> OperationFuture:
        client = self._service.client(process)
        if operation in ("rdp", "inp"):
            template = arguments[0]
            if isinstance(template, (Entry, Template)) and not is_defined(
                template.fields[0]
            ):
                return _ScatterGather(self, client, operation, template).future
        if operation == "cas":
            template, entry = arguments[0], arguments[1]
            if isinstance(template, (Entry, Template)) and isinstance(entry, Entry):
                shard_map = self._service.shard_map
                if not is_defined(template.fields[0]):
                    return _WildcardCas(self, client, process, template, entry).future
                if shard_map.shard_of(template.fields[0]) != shard_map.shard_of(
                    entry.fields[0]
                ):
                    # Concrete template and entry on different shards: the
                    # absence pin and the insert cannot share a group, so
                    # the pair becomes a two-leg transaction.
                    return self._cas_via_txn(
                        (("nix", template), ("out", entry)), process
                    )
        return client.submit(operation, tuple(arguments))

    def _submit_txn(self, legs: tuple, process: Hashable) -> OperationFuture:
        from repro.txn.manager import CrossShardTxn, plan_legs

        plan = plan_legs(self._service.shard_map, legs)
        if len(plan) == 1:
            # Every leg lives on one shard: its PBFT instance alone is the
            # atomicity — one ordered txn_exec, no coordinator protocol.
            (shard,) = plan
            client = self._service.client(process)
            group = self._service.group(shard)
            return self._resolving(
                "txn_exec",
                lambda: client.submit(
                    "txn_exec", (legs,), replica_ids=group.replica_ids
                ),
                process,
            )
        return CrossShardTxn(self, process, legs).future

    def _cas_via_txn(self, legs: tuple, process: Hashable) -> OperationFuture:
        """Run ``legs`` as a transaction, answering in ``cas`` payload
        shape: committed → inserted, a ``nix`` match → the existing entry,
        a per-leg policy denial → the usual denial payload."""
        future = OperationFuture(operation="cas", submitted_at=self._now())
        inner = self._submit_txn(legs, process)
        future.request_id = inner.request_id

        def on_done(inner: OperationFuture) -> None:
            if future.done:
                return
            now = self._now()
            if inner.exception is not None:
                future._complete(now, exception=inner.exception)
                return
            future._complete(now, result=_cas_payload(inner.result()))

        inner.add_done_callback(on_done)
        return future

    # ------------------------------------------------------------------
    # Transaction-lock resolution (the non-blocking guarantee)
    # ------------------------------------------------------------------

    def _resolve_lock(
        self, conflict: Any, process: Hashable, retry: Callable[[], None]
    ) -> None:
        """Clear one ``(txn_key, coordinator_shard, expired)`` conflict.

        A *live* holder is simply outwaited (one poll interval, then
        retry — the bounced probe was itself an ordered op, so it ticked
        the holder's expiry clock).  An **expired** holder is resolved:
        ``txn_force`` at its replicated coordinator group records an
        abort iff the transaction is still undecided (first ordered
        decision wins — a commit that already landed stays a commit),
        then ``txn_apply`` of the recorded outcome at every participant
        group releases the locks.  *Any* client may do this: resolution
        needs no cooperation from the possibly-crashed owner, and the
        coordinator is a ``3f + 1`` group, not a process — the two
        halves of the non-blocking argument.
        """
        if not (isinstance(conflict, (tuple, list)) and len(conflict) == 3):
            self._schedule(self.default_poll_interval, retry)
            return
        txn_key, coordinator_shard, expired = conflict
        if (
            not expired
            or not isinstance(coordinator_shard, int)
            or not 0 <= coordinator_shard < self.n_shards
            or not isinstance(txn_key, (tuple, list))
        ):
            self._schedule(self.default_poll_interval, retry)
            return
        txn_id = tuple(txn_key)
        client = self._service.client(process)

        def on_forced(reply: OperationFuture) -> None:
            if reply.exception is not None:
                self._schedule(self.default_poll_interval, retry)
                return
            payload = reply.result()
            value = (
                payload[1]
                if isinstance(payload, tuple) and len(payload) == 2
                else None
            )
            if not (
                isinstance(value, tuple) and len(value) == 4 and value[0] == "decided"
            ):
                # "unknown" (our bounce raced the release), "not-expired"
                # (clock skew between bounce and force) or a refusal:
                # give the holder one more interval.
                self._schedule(self.default_poll_interval, retry)
                return
            _tag, outcome, _reason, participants = value
            shards = sorted(
                {
                    shard
                    for shard in participants
                    if isinstance(shard, int) and 0 <= shard < self.n_shards
                }
            )
            if not shards:
                self._schedule(self.default_poll_interval, retry)
                return
            remaining = len(shards)

            def on_applied(_reply: OperationFuture) -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    retry()

            for shard in shards:
                client.submit(
                    "txn_apply",
                    (txn_id, outcome),
                    replica_ids=self._service.group(shard).replica_ids,
                    on_complete=on_applied,
                )

        client.submit(
            "txn_force",
            (txn_id,),
            replica_ids=self._service.group(coordinator_shard).replica_ids,
            on_complete=on_forced,
        )

    # ------------------------------------------------------------------
    # Notification channel (repro.notify)
    # ------------------------------------------------------------------

    def _waiter_groups(self, template) -> tuple[tuple[int, tuple], ...]:
        """The replica groups that must hold a waiter for ``template``:
        the owning shard for a concrete-name template, every shard for a
        wildcard-name one (any shard may receive the matching insert)."""
        if isinstance(template, (Entry, Template)):
            if is_defined(template.fields[0]):
                shard = self._service.shard_map.shard_of_tuple(template)
                return ((shard, self._service.group(shard).replica_ids),)
            return tuple(
                (shard, group.replica_ids)
                for shard, group in enumerate(self._service.groups)
            )
        # Malformed template: nothing to arm; the probe path will surface
        # the error through the normal read machinery.
        return ()

    def _stats_extra(self) -> dict:
        return {
            "shards": self._service.shard_statistics(),
            "notify": {
                "waiters": {
                    shard: {
                        node.replica_id: len(node.application.waiters)
                        for node in group.nodes
                    }
                    for shard, group in enumerate(self._service.groups)
                },
            },
        }

    def __repr__(self) -> str:
        return (
            f"ShardedSpace(shards={self._service.n_shards}, f={self._service.f})"
        )


class _ScatterGather:
    """One wildcard-name ``rdp``/``inp`` resolved across every shard.

    Drives a composite :class:`~repro.futures.OperationFuture` through up
    to :attr:`ShardedSpace.max_inp_rounds` rounds.  Each round issues one
    probe per replica group **from the same client identity**.
    :class:`~repro.replication.client.PEATSClient` keeps at most one
    request in flight per replica group and queues the rest; the groups
    are disjoint, so a round's probes never queue behind each other and
    travel in parallel.  The next round starts only after every group
    answered.
    """

    def __init__(
        self,
        space: ShardedSpace,
        client: ShardedClient,
        operation: str,
        template: Template,
    ) -> None:
        self.space = space
        self.client = client
        self.operation = operation
        self.template = template
        self.rounds = 0
        self.future = OperationFuture(
            operation=operation, submitted_at=space._now()
        )
        self._answers: dict[int, tuple] = {}
        self._probe_round()

    # ------------------------------------------------------------------
    # Read phase: one voted probe per replica group
    # ------------------------------------------------------------------

    def _probe_round(self) -> None:
        self._answers = {}
        self.space._obs_scatter_rounds.inc()
        self.space._obs_scatter_probes.inc(float(self.space.n_shards))
        for shard, group in enumerate(self.space.service.groups):
            probe = self.client.submit(
                "rdp", (self.template,), replica_ids=group.replica_ids
            )
            probe.shard = shard
            if self.future.request_id is None:
                self.future.request_id = probe.request_id
            probe.add_done_callback(self._on_probe)

    def _on_probe(self, probe: OperationFuture) -> None:
        if self.future.done:
            return
        if probe.exception is not None:
            self.future._complete(self.space._now(), exception=probe.exception)
            return
        self._answers[probe.shard] = probe.result()
        if len(self._answers) == self.space.n_shards:
            self._resolve_round()

    def _resolve_round(self) -> None:
        winner = None
        for shard in sorted(self._answers):
            status, value = self._answers[shard]
            if status not in (DENIED, TXN_LOCKED) and value is not None:
                winner = shard
                break
        if winner is None:
            self._complete_unmatched()
            return
        if self.operation == "rdp":
            self.future.shard = winner
            self.future._complete(self.space._now(), result=self._answers[winner])
            return
        self._take_from(winner)

    def _complete_unmatched(self) -> None:
        """No shard holds a visible match: a transaction-locked shard (it
        may be hiding one) defers the whole answer to the lock-resolution
        machinery; else surface the lowest denial, else None."""
        now = self.space._now()
        for shard in sorted(self._answers):
            payload = self._answers[shard]
            if payload[0] == TXN_LOCKED:
                # The Space-level resolving wrapper clears the conflict
                # and re-runs the whole scatter.
                self.future.shard = shard
                self.future._complete(now, result=payload)
                return
        for shard in sorted(self._answers):
            payload = self._answers[shard]
            if payload[0] == DENIED:
                self.future.shard = shard
                self.future._complete(now, result=payload)
                return
        self.future._complete(now, result=("OK", None))

    # ------------------------------------------------------------------
    # Take phase (inp only): destructive retry on the winning shard
    # ------------------------------------------------------------------

    def _take_from(self, winner: int) -> None:
        take = self.client.submit(
            "inp",
            (self.template,),
            replica_ids=self.space.service.group(winner).replica_ids,
        )
        take.shard = winner
        take.add_done_callback(self._on_take)

    def _on_take(self, take: OperationFuture) -> None:
        if self.future.done:
            return
        now = self.space._now()
        if take.exception is not None:
            self.future._complete(now, exception=take.exception)
            return
        status, value = take.result()
        if status == DENIED or value is not None:
            self.future.shard = take.shard
            self.future._complete(now, result=(status, value))
            return
        # Lost the race: the probed tuple was removed before the take
        # landed.  Re-run the read phase so removal never spans shards.
        self.rounds += 1
        if self.rounds >= self.space.max_inp_rounds:
            self.future._complete(now, result=("OK", None))
            return
        self._probe_round()


class _WildcardCas:
    """One wildcard-name ``cas`` resolved optimistically, then atomically.

    The fast path is a plain scatter-gather read: a visible match on any
    shard answers ``(False, match)`` with no transaction at all (the same
    answer a local ``cas`` gives, and the common case under contention-free
    workloads).  Only when **no** shard shows a match does the operation
    become a transaction — a ``nix`` leg pinning absence on every shard
    plus the ``cas`` leg inserting on the entry's shard — so the
    insert-iff-absent decision is one atomic commit across all groups, and
    a concurrent ``out`` on any shard aborts it (surfacing the matched
    entry, exactly as if it had been visible all along).  A denied probe
    falls through to the transaction: the per-leg policy check there is
    the authoritative one for ``cas``.
    """

    def __init__(
        self,
        space: ShardedSpace,
        client: ShardedClient,
        process: Hashable,
        template: Template,
        entry: Entry,
    ) -> None:
        self.space = space
        self.process = process
        self.template = template
        self.entry = entry
        self.future = OperationFuture(operation="cas", submitted_at=space._now())
        probe = _ScatterGather(space, client, "rdp", template).future
        if self.future.request_id is None:
            self.future.request_id = probe.request_id
        probe.add_done_callback(self._on_probe)

    def _on_probe(self, probe: OperationFuture) -> None:
        if self.future.done:
            return
        now = self.space._now()
        if probe.exception is not None:
            self.future._complete(now, exception=probe.exception)
            return
        status, value = probe.result()
        if status == TXN_LOCKED:
            # Defer to the Space-level lock resolution; the whole cas
            # (including this optimistic read) is retried afterwards.
            self.future._complete(now, result=(status, value))
            return
        if status != DENIED and value is not None:
            self.future.shard = probe.shard
            self.future._complete(now, result=("OK", (False, value)))
            return
        legs = (("nix", self.template), ("cas", self.template, self.entry))
        inner = self.space._cas_via_txn(legs, self.process)
        inner.add_done_callback(self._on_txn)

    def _on_txn(self, inner: OperationFuture) -> None:
        if self.future.done:
            return
        now = self.space._now()
        if inner.exception is not None:
            self.future._complete(now, exception=inner.exception)
            return
        self.future._complete(now, result=inner.result())


def _cas_payload(payload: Any) -> tuple:
    """Map a transaction payload onto the ``cas`` reply shape.

    Committed → ``(True, None)`` (the entry went in); aborted by a ``nix``
    match → ``(False, matched)`` (the pre-existing entry, as a plain
    ``cas`` reports it); aborted by a per-leg policy denial → the usual
    denial payload; aborted by a persistent lock → the ``TXN-LOCKED``
    bounce, so the shared resolution machinery retries.
    """
    if isinstance(payload, tuple) and len(payload) == 2:
        status, value = payload
        if status == "OK" and isinstance(value, tuple) and value:
            if value[0] == "committed":
                return ("OK", (True, None))
            if value[0] == "aborted":
                reason = value[1]
                if isinstance(reason, tuple) and reason:
                    if reason[0] == "match" and len(reason) == 3:
                        return ("OK", (False, reason[2]))
                    if reason[0] == "policy-denied" and len(reason) == 3:
                        return (DENIED, reason[2])
                    if reason[0] == "locked" and len(reason) == 4:
                        return (TXN_LOCKED, tuple(reason[1:]))
                    if reason[0] == "denied" and len(reason) == 2:
                        return (DENIED, reason[1])
                return (DENIED, f"cas transaction aborted: {reason!r}")
        if status in (DENIED, TXN_LOCKED):
            return payload
    raise ReplicationError(f"malformed cas transaction payload: {payload!r}")
