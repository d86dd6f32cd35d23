"""The one interface between the ordering core and what it replicates.

Fig. 2 draws a replica as two boxes: a total-order protocol underneath a
"tuple space + interceptor" state machine.  :class:`Application` is the
line between them — everything
:class:`~repro.replication.pbft.OrderingNode` ever asks of the state
machine.  The node orders and executes requests without interpreting
them, so anything that satisfies this protocol can be replicated:
:class:`~repro.replication.replica.PEATSReplica` in every deployment, a
thirty-line append-only log in ``tests/test_replication_application.py``.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Protocol, Sequence

from repro.replication.messages import ClientRequest

__all__ = ["Application"]


class Application(Protocol):
    """A deterministic state machine the ordering core can replicate."""

    def execute(self, request: ClientRequest) -> Any:
        """Execute ``request`` (called in the agreed order) and return its
        reply payload.  Re-executing a request at or below the client's
        latest returns the cached reply without changing state."""

    def execute_read_only(self, request: ClientRequest) -> Optional[Any]:
        """Answer a read-only-lane ``request`` from the executed state
        without changing it — no reply cache, nothing :meth:`capture_state`
        sees — or return ``None`` for a request the lane does not serve,
        which then goes unanswered."""

    def cached_reply(self, request: ClientRequest) -> Optional[Any]:
        """The reply to an exact retransmission of the client's latest
        executed request, else ``None``."""

    def last_request_id(self, client: Hashable) -> Optional[int]:
        """The id of the last request executed for ``client``."""

    def capture_state(self) -> Any:
        """A picklable snapshot, byte-identical on every correct replica
        that executed the same request prefix (checkpoint digests)."""

    def install_state(self, state: Any) -> None:
        """Replace the state with a certified :meth:`capture_state`."""

    def on_client_message(self, sender: Hashable, payload: Any) -> None:
        """An un-ordered message from the non-replica ``sender`` (the link
        authenticates it; the payload is arbitrary and an unknown one is
        ignored, never raised on).  Soft state only: correct replicas see
        different subsets, so none of it may enter :meth:`capture_state`."""

    def drain_pushes(self) -> Sequence[Any]:
        """Hand over (and forget) the replica→client wire messages execution
        queued, in the order they must leave; each one's ``client`` names
        its addressee.  Called once per executed batch."""

    def push_sent(self, push: Any) -> None:
        """The node sent one drained push (a faulty node's row of the fault
        table may still swallow or rewrite it below the node).
        Type-specific accounting hangs here, so the node never learns what
        kinds of push exist."""
