"""The view change of the ordering node.

The liveness half of the PBFT-style protocol of
:mod:`repro.replication.pbft`, as a mix-in of its one ``OrderingNode``
(same object, same attributes):

* a backup that has buffered a request for longer than the view-change
  timeout broadcasts ``VIEW-CHANGE`` (carrying its prepared certificates
  *and* its stable-checkpoint proof); on ``2f + 1`` view-change votes the
  new primary installs the view with ``NEW-VIEW``, re-proposing every
  batch reported as prepared above the quorum's best stable checkpoint,
  and re-ordering the still-pending requests;
* the votes are ballots in the node's
  :class:`~repro.replication.votes.VoteStore`, at most 16 pending views
  per sender (a faulty replica naming millions of future views evicts
  only its own lowest), and leave it when their view is entered.

View-change messages carry no digital signatures, so the view-change
fields ``last_executed``/``highest_sequence``/``prepared`` are only
structurally validated.  Two mitigations narrow (but do not close) the
gap: a new primary adopts a vote's stable checkpoint as its re-proposal
floor only when ``f + 1`` voters corroborate it, and a backup adopts a
``NEW-VIEW`` floor only when corroborated by the votes it saw itself.
Every claimed sequence above the adopted floor's high-water mark is
ignored, so a lying ``highest_sequence`` cannot hang the null-fill.
Below that bound ``prepared``/``highest_sequence`` remain trusted;
closing that needs Castro–Liskov's decision procedure over the votes,
which is future work.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.replication.messages import Batch, Checkpoint, NewView, ViewChange, null_batch
from repro.replication.votes import VIEW_CHANGE

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
        # Progress may wait on a checkpoint certificate (a full window) or
        # a state transfer a partition dropped: re-multicast those cheap,
        # idempotent pieces before escalating to a view change.
        own = self._own_checkpoint
        if own is not None and own.sequence > self.stable_checkpoint:
            self._multicast(own)
        if self.stable_checkpoint > self.last_executed:
            self._request_state(self.stable_checkpoint)
        if self._view_changing:
            # The view change itself stalled (say, the new primary is cut
            # off): after another timeout vote for the *next* view, so the
            # primary role rotates past the unreachable replica.
            if now - self._view_change_started_at > self.view_change_timeout:
                self._start_view_change(self._highest_vote + 1)
            return
        self._start_view_change(self.view + 1)

    def force_view_change(self) -> None:
        """Vote to leave the current view now, regardless of timers.

        Fault schedules (:mod:`repro.sim.faults`) model suspicious
        replicas and view-change storms with it.
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
        # Report every prepared certificate above the stable checkpoint,
        # executed sequences included: a new primary that missed part of
        # the history must re-propose the *real* batches at their numbers,
        # not null-fill them (execution is idempotent per request).
        vote = ViewChange(
            new_view=new_view,
            replica=self.replica_id,
            last_executed=self.last_executed,
            prepared=self._prepared_certificates(),
            highest_sequence=self.next_sequence - 1,
            stable_checkpoint=self.stable_checkpoint,
            checkpoint_proof=self._checkpoint_proof,
        )
        self.votes.vote(VIEW_CHANGE, new_view, 0, self.replica_id, VIEW_CHANGE, vote)
        self._multicast(vote)
        self._maybe_install_view(new_view)

    def _on_view_change(self, sender: Hashable, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        if not self.votes.vote(VIEW_CHANGE, message.new_view, 0, sender, VIEW_CHANGE, message):
            return
        # Join the view change once f + 1 replicas are asking for it (we
        # cannot all be faulty), even if our own timer has not fired — and
        # also when they ask for a *higher* view than the one we are
        # currently voting for, otherwise concurrent change attempts can
        # deadlock one vote short of every quorum.
        asked = self.votes.certified(VIEW_CHANGE, message.new_view, 0, self.votes.weak)
        if asked is not None and (
            not self._view_changing or message.new_view > self._highest_vote
        ):
            self._start_view_change(message.new_view)
        self._maybe_install_view(message.new_view)

    def _corroborated_floor(self, votes: Any, candidates: list) -> tuple[int, tuple]:
        """The best *certified and corroborated* stable checkpoint among
        ``candidates`` (``(stable, proof)`` pairs), else our own: nothing at
        or below it needs re-proposing.

        The proof is only structurally checkable (its inner votes are not
        origin-authenticated), so f + 1 of the view-change ``votes`` must
        also report a stable checkpoint at least that high: one of them is
        correct, and reached it through a real certificate.
        """
        for stable, proof in sorted(candidates, key=lambda candidate: candidate[0], reverse=True):
            if stable <= self.stable_checkpoint:
                break
            certificate = self._checkpoint_certificate(proof)
            if certificate is None or certificate[0] != stable:
                continue
            if sum(1 for vote in votes if vote.stable_checkpoint >= stable) >= self.votes.weak:
                return stable, proof
        return self.stable_checkpoint, self._checkpoint_proof

    def _maybe_install_view(self, new_view: int) -> None:
        if self.primary_of(new_view) != self.replica_id or new_view <= self.view:
            return
        if self.votes.certified(VIEW_CHANGE, new_view, 0, self.votes.quorum) is None:
            return
        votes = self.votes.voters(VIEW_CHANGE, new_view, 0)
        stable, stable_proof = self._corroborated_floor(
            votes.values(),
            [(vote.stable_checkpoint, vote.checkpoint_proof) for vote in votes.values()],
        )
        # Every batch some member of the quorum reports prepared; per
        # sequence the certificate from the *highest* view wins (PBFT's
        # rule), so a batch a later view superseded cannot resurface.
        best: dict[int, tuple[int, Batch]] = {}
        for vote in votes.values():
            for sequence, (certificate_view, batch) in vote.prepared.items():
                if sequence <= stable:
                    continue
                current = best.get(sequence)
                if current is None or certificate_view > current[0]:
                    best[sequence] = (certificate_view, batch)
        reproposals = {sequence: batch for sequence, (_, batch) in best.items()}
        self._multicast(NewView(new_view, self.replica_id, reproposals, stable, stable_proof))
        self._enter_view(new_view, reproposals, votes.values(), stable, stable_proof)

    def _on_new_view(self, sender: Hashable, message: NewView) -> None:
        if message.view <= self.view or sender != self.primary_of(message.view):
            return
        votes = self.votes.voters(VIEW_CHANGE, message.view, 0).values()
        # Corroborate the announced floor against the votes we saw
        # ourselves; an uncorroborated floor is not adopted (we keep more
        # log than needed, never less).
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
        if stable > self.stable_checkpoint:
            # Adopt the quorum's certified checkpoint horizon; if we have
            # not executed up to it ourselves, fetch the state.
            self.stable_checkpoint = stable
            self._checkpoint_proof = stable_proof
            self._stable_state = self._checkpoint_states.get(stable)
            self._truncate(stable)
            if self.last_executed < stable:
                self._request_state(stable)
        # Number above everything assigned anywhere we know of (our log,
        # the re-proposals, the voters' claims), so sequence numbers are
        # never reused across views; a claim above the adopted floor's
        # high-water mark is ignored, so one lying vote cannot stretch the
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
        # re-proposed would stay in _ordered_keys forever, its
        # retransmissions ignored: rebuild the set from what survives into
        # the new view (execution is idempotent per request, so re-ordering
        # one that commits under its old number is harmless).
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
            # Re-propose every sequence above the checkpoint floor up to the
            # highest assigned anywhere: the quorum's prepared batches under
            # their old numbers, and every hole (execution is contiguous)
            # plugged with our own committed batch, else a null batch.
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
        self.votes.clear(VIEW_CHANGE, through_view=new_view)
        # Replay ordering messages that overtook the NEW-VIEW announcement.
        replay, self._future_messages = self._future_messages, {}
        for sender, messages in replay.items():
            for message in messages:
                self.on_message(sender, message)
        self._replay_out_of_window()

    def _buffer_future(self, sender: Hashable, message: Any) -> None:
        """Hold an ordering message for a view we have not entered yet.

        Bounded per sender: a correct replica is a view or so ahead at
        most, and whatever a long backlog loses the new view's
        re-proposals and client retransmissions recover.
        """
        queue = self._future_messages.setdefault(sender, [])
        queue.append(message)
        if len(queue) > self._future_limit:
            del queue[: len(queue) - self._future_limit]
