"""The view change of the ordering node.

The liveness half of the PBFT-style protocol of
:mod:`repro.replication.pbft`, as a mix-in of its one ``OrderingNode``
(same object, same attributes):

* a backup that has buffered a request for longer than the view-change
  timeout broadcasts ``VIEW-CHANGE`` (carrying its prepared certificates
  *and* its stable-checkpoint proof); on ``2f + 1`` view-change votes the
  new primary installs the view with ``NEW-VIEW``, re-proposing every
  batch reported as prepared above the quorum's best stable checkpoint,
  and re-ordering the still-pending requests.

View-change messages carry no digital signatures, so the view-change
fields ``last_executed``/``highest_sequence``/``prepared`` are only
structurally validated.  Two mitigations narrow (but do not close) the
gap: a new primary adopts a view-change vote's stable checkpoint as its
re-proposal floor only when ``f + 1`` voters corroborate it, and a backup
adopts a ``NEW-VIEW`` floor only when corroborated by the view-change
votes it saw itself.  Every claimed sequence above the adopted floor's
high-water mark is ignored, so a lying ``highest_sequence`` cannot hang
the new primary's null-fill.  Below that bound the unauthenticated
``prepared``/``highest_sequence`` fields remain trusted as in the
pre-batching protocol; closing that needs Castro–Liskov's decision
procedure over the votes, which is future work.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.replication.messages import (
    Batch,
    Checkpoint,
    NewView,
    ViewChange,
    null_batch,
)

__all__ = ["ViewChangeMixin"]


class ViewChangeMixin:
    """Timeouts, view-change votes, NEW-VIEW installation and replay."""

    #: ``last_executed`` when this replica's newest view change started;
    #: the health rules call a group churning when nobody executed past it.
    executed_at_view_change = 0

    def check_timeouts(self) -> None:
        """Start a view change if a buffered request has waited too long.

        Called by the service after advancing simulated time; a real
        deployment would use wall-clock timers.
        """
        now = self.network.now
        overdue = [
            key
            for key, since in self._buffered_since.items()
            if key not in self._executed_keys and now - since > self.view_change_timeout
        ]
        if not overdue:
            return
        # Progress may be gated on a checkpoint certificate (the window is
        # full) or on a state transfer whose messages were dropped by a
        # partition; re-multicast the cheap idempotent pieces before
        # escalating to a view change.
        if self._own_checkpoint is not None and self._own_checkpoint.sequence > self.stable_checkpoint:
            self._multicast(self._own_checkpoint)
        if self.stable_checkpoint > self.last_executed:
            self._request_state(self.stable_checkpoint)
        if self._view_changing:
            # The view change itself has stalled (e.g. the designated new
            # primary is partitioned away and can never gather a quorum).
            # PBFT's answer is to escalate: after another timeout, vote for
            # the *next* view so the primary role rotates past the
            # unreachable replica.
            if now - self._view_change_started_at > self.view_change_timeout:
                self._start_view_change(self._highest_vote + 1)
            return
        self._start_view_change(self.view + 1)

    def force_view_change(self) -> None:
        """Vote to leave the current view now, regardless of timers.

        Used by fault schedules (:mod:`repro.sim.faults`) to model
        suspicious replicas / view-change storms without waiting for a
        request to go overdue.
        """
        if not self._view_changing:
            self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        new_view = max(new_view, self.view + 1)
        self._obs_view_changes.inc()
        self._view_changing = True
        self._view_change_started_at = self.network.now
        self.executed_at_view_change = self.last_executed
        if self._events.enabled:
            self._event(
                "view-change",
                new_view=new_view,
                last_executed=self.last_executed,
                stable_checkpoint=self.stable_checkpoint,
            )
        self._highest_vote = max(self._highest_vote, new_view)
        # Report every prepared certificate this replica holds above its
        # stable checkpoint — including sequences it already executed.  A
        # new primary that missed part of the history (it was partitioned
        # while the rest of the quorum executed) needs those certificates
        # to re-propose the *real* batches at the old numbers; otherwise it
        # would null-fill them and silently diverge from the other correct
        # replicas.  Execution is idempotent per request, so replicas that
        # already ran them are unaffected.
        vote = ViewChange(
            new_view=new_view,
            replica=self.replica_id,
            last_executed=self.last_executed,
            prepared=self._prepared_certificates(),
            highest_sequence=self.next_sequence - 1,
            stable_checkpoint=self.stable_checkpoint,
            checkpoint_proof=self._checkpoint_proof,
        )
        self._view_change_votes.setdefault(new_view, {})[self.replica_id] = vote
        self._multicast(vote)
        self._maybe_install_view(new_view)

    def _on_view_change(self, sender: Hashable, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        self._view_change_votes.setdefault(message.new_view, {})[sender] = message
        # Bound the map: a faulty replica naming millions of distinct
        # future views must not grow it.  Keep the *lowest* pending views —
        # view numbers advance one certificate at a time, so far-future
        # entries can only be junk — plus whatever view we voted for.
        if len(self._view_change_votes) > 16:
            keep = set(sorted(self._view_change_votes)[:16])
            keep.add(self._highest_vote)
            self._view_change_votes = {
                view: votes
                for view, votes in self._view_change_votes.items()
                if view in keep
            }
            if message.new_view not in self._view_change_votes:
                return
        # Join the view change once f + 1 replicas are asking for it (we
        # cannot all be faulty), even if our own timer has not fired — and
        # also when they ask for a *higher* view than the one we are
        # currently voting for, otherwise concurrent change attempts can
        # deadlock one vote short of every quorum.
        votes = self._view_change_votes[message.new_view]
        if len(votes) >= self.f + 1 and (
            not self._view_changing or message.new_view > self._highest_vote
        ):
            self._start_view_change(message.new_view)
        self._maybe_install_view(message.new_view)

    def _corroborated_floor(self, votes: Any, candidates: list) -> tuple[int, tuple]:
        """The best *certified and corroborated* stable checkpoint among
        ``candidates`` (``(stable, proof)`` pairs), else our own: nothing at
        or below it needs re-proposing.

        The proof alone is only structurally checkable (its inner votes are
        not origin-authenticated), so additionally require f + 1 of the
        view-change ``votes`` to report a stable checkpoint at least that
        high — at least one of them is correct, and a correct replica only
        reaches a stable checkpoint through a real certificate.
        """
        for stable, proof in sorted(
            candidates, key=lambda candidate: candidate[0], reverse=True
        ):
            if stable <= self.stable_checkpoint:
                break
            certificate = self._checkpoint_certificate(proof)
            if certificate is None or certificate[0] != stable:
                continue
            if sum(1 for vote in votes if vote.stable_checkpoint >= stable) >= self.f + 1:
                return stable, proof
        return self.stable_checkpoint, self._checkpoint_proof

    def _maybe_install_view(self, new_view: int) -> None:
        votes = self._view_change_votes.get(new_view, {})
        if len(votes) < self.quorum:
            return
        if self.primary_of(new_view) != self.replica_id:
            return
        if new_view <= self.view:
            return
        stable, stable_proof = self._corroborated_floor(
            votes.values(),
            [(vote.stable_checkpoint, vote.checkpoint_proof) for vote in votes.values()],
        )
        # Collect every batch reported prepared by some member of the
        # quorum.  Per sequence, the certificate from the *highest* view
        # wins (PBFT's rule): a batch superseded by a later view's
        # null-fill or re-proposal must not resurface just because the
        # older certificate's vote arrived first.
        best: dict[int, tuple[int, Batch]] = {}
        for vote in votes.values():
            for sequence, (certificate_view, batch) in vote.prepared.items():
                if sequence <= stable:
                    continue
                current = best.get(sequence)
                if current is None or certificate_view > current[0]:
                    best[sequence] = (certificate_view, batch)
        reproposals = {sequence: batch for sequence, (_, batch) in best.items()}
        announcement = NewView(
            view=new_view,
            primary=self.replica_id,
            reproposals=reproposals,
            stable_checkpoint=stable,
            checkpoint_proof=stable_proof,
        )
        self._multicast(announcement)
        self._enter_view(new_view, reproposals, votes.values(), stable, stable_proof)

    def _on_new_view(self, sender: Hashable, message: NewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.primary_of(message.view):
            return
        votes = self._view_change_votes.get(message.view, {}).values()
        # Corroborate the announced floor against the view-change votes
        # we saw ourselves; an uncorroborated floor is simply not
        # adopted (we keep more log than strictly needed, never less).
        stable, stable_proof = self._corroborated_floor(
            votes, [(message.stable_checkpoint, message.checkpoint_proof)]
        )
        self._enter_view(message.view, dict(message.reproposals), votes, stable, stable_proof)

    def _enter_view(
        self,
        new_view: int,
        reproposals: dict[int, Batch],
        votes: Any,
        stable: int,
        stable_proof: tuple[Checkpoint, ...],
    ) -> None:
        self.view = new_view
        self._view_changing = False
        if self._events.enabled:
            self._event("view-installed", view=new_view, reproposals=len(reproposals))
        self._sent_prepare.clear()
        self._sent_commit.clear()
        if stable > self.stable_checkpoint:
            # Adopt the quorum's certified checkpoint horizon; if we have
            # not executed up to it ourselves, fetch the state.
            self.stable_checkpoint = stable
            self._checkpoint_proof = stable_proof
            self._stable_state = self._checkpoint_states.get(stable)
            self._truncate(stable)
            if self.last_executed < stable:
                self._request_state(stable)
        # Number above everything assigned anywhere we know of — our own
        # log, the re-proposals and what the view-change voters report —
        # so sequence numbers are never reused across views.  A claim above
        # the adopted floor's high-water mark is ignored (PBFT's bound on a
        # new view's sequences): one lying vote must not stretch the
        # null-fill below without limit.
        ceiling = self.high_water_mark
        reproposals = {seq: batch for seq, batch in reproposals.items() if seq <= ceiling}
        claims = [vote.last_executed for vote in votes] + [vote.highest_sequence for vote in votes]
        highest = max(
            [self.next_sequence - 1, self.last_executed, self.stable_checkpoint]
            + list(reproposals)
            + [claim for claim in claims if claim <= ceiling]
        )
        self.next_sequence = highest + 1
        # A request ordered in an earlier view but neither executed nor
        # re-proposed by the quorum would otherwise be stuck forever: its
        # key sits in _ordered_keys, so retransmissions are ignored and it
        # is never assigned a new sequence number.  Rebuild the set from
        # what actually survives into the new view; execution is idempotent
        # per request, so re-ordering a request that does eventually commit
        # under its old number is harmless.
        self._ordered_keys = set(self._executed_keys)
        for batch in reproposals.values():
            self._ordered_keys.update(batch.keys())
        self._unordered = {
            key: request
            for key, request in self._buffered.items()
            if key not in self._ordered_keys and key not in self._executed_keys
        }
        # A drain posted in an earlier view may never have run (the node's
        # posts were held); the new view starts the turn's drain afresh.
        self._drain_posted = False
        if self.is_primary:
            # Re-propose every sequence number above the checkpoint floor
            # up to the highest one assigned anywhere, keeping the quorum's
            # prepared batches under their old numbers.  Sequences nobody
            # prepared would otherwise be permanent holes — execution is
            # strictly contiguous — so they are plugged: with this
            # replica's own committed batch if it has one, else with a
            # no-op null batch (PBFT's rule).
            floor = max(self.last_executed, self.stable_checkpoint)
            for sequence in range(floor + 1, self.next_sequence):
                batch = reproposals.get(sequence) or self._committed.get(sequence)
                if batch is None:
                    batch = null_batch(sequence)
                self._propose(sequence, batch)
            # Then assign fresh numbers to the still-buffered requests.
            self._maybe_drain()
        # Reset request timers so we do not immediately trigger another change.
        for key in self._buffered_since:
            self._buffered_since[key] = self.network.now
        # Votes for views at or below the one just entered can never be
        # used again (both install paths ignore them): drop them.
        self._view_change_votes = {
            view: votes for view, votes in self._view_change_votes.items() if view > new_view
        }
        # Replay ordering messages that overtook the NEW-VIEW announcement.
        replay, self._future_messages = self._future_messages, {}
        for sender, messages in replay.items():
            for message in messages:
                self.on_message(sender, message)
        self._replay_out_of_window()

    def _buffer_future(self, sender: Hashable, message: Any) -> None:
        """Hold an ordering message for a view we have not entered yet.

        Bounded per sender: a correct replica can only be a view or so
        ahead, so the tail of a long backlog is droppable — anything lost
        is recovered by the new view's re-proposals and client
        retransmissions.
        """
        queue = self._future_messages.setdefault(sender, [])
        queue.append(message)
        if len(queue) > self._future_limit:
            del queue[: len(queue) - self._future_limit]
