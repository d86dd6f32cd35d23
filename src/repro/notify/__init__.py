"""repro.notify — the server-push notification channel.

The re-anchor gap this subsystem closes: every blocking ``rd``/``in`` on
every transport was client-side polling.  Here, replicas keep a table of
per-template *waiters* (:mod:`repro.notify.waiters`, soft state beside the
replicated application); when the ordered request stream inserts a
matching tuple the replica itself builds the :class:`~repro.replication.
messages.Notify` wire message (it knows its own id) and queues it on its
one push outbox, which the ordering node drains after every batch;
on the client side each armed :class:`ClientWaiter`
(:mod:`repro.notify.subscription`) votes its pushes in the client's one
``f + 1`` :class:`~repro.replication.tally.Tally` — the rule replies and
transaction pushes accept by too — and acts on a wake-up only after
``f + 1`` distinct replicas agree: a Byzantine replica can neither forge
a match nor (because the polling path survives as a bounded fallback)
starve a waiter.

On top of the wake-up channel, :class:`Subscription` is the streaming
handle behind ``Space.watch(template)``: a bounded event buffer with
iterator and callback delivery, uniform across the local, replicated and
sharded backends.

Everything in this package is part of the deterministic core: no ambient
clock, RNG or thread creation — time comes in through injected clocks and
waiting is delegated to the owning backend's pump.
"""

from repro.notify.subscription import ClientWaiter, Subscription, WaiterHandle, WatchEvent
from repro.notify.waiters import Waiter, WaiterTable

__all__ = [
    "ClientWaiter",
    "Subscription",
    "Waiter",
    "WaiterHandle",
    "WaiterTable",
    "WatchEvent",
]
