"""Checkpoints, log truncation and state transfer of the ordering node.

The checkpoint half of the PBFT-style protocol of
:mod:`repro.replication.pbft`, as a mix-in of its one ``OrderingNode``
(same object, same attributes — the split is along the protocol's seams,
not a layer):

* every ``checkpoint_interval`` sequence numbers a replica multicasts a
  ``CHECKPOINT`` carrying a digest of its application state; ``2f + 1``
  matching checkpoints form a *stable certificate*, after which all
  ordering state at or below the stable sequence is garbage-collected and
  the water marks advance (a primary never assigns sequence numbers beyond
  ``stable + log_window``, so the message log is bounded);
* a replica that learns a stable checkpoint ahead of its own execution
  horizon fetches the checkpointed application state from a peer and
  installs it after validating it against the certificate digest
  (incremental/partial transfer is future work);
* checkpoint votes and state responses are ballots in the node's
  :class:`~repro.replication.votes.VoteStore`, one slot per sender each:
  a replica's newer one evicts its older, so a faulty replica spraying
  sequence numbers overwrites its own slot instead of growing the table.

Checkpoint messages carry no digital signatures, and per-link MACs cannot
be verified by a third party, so the checkpoint proofs embedded in
``VIEW-CHANGE``/``NEW-VIEW``/``STATE-RESPONSE`` are only structurally
validated.  This side narrows (but does not close) the gap: a state
transfer installs only state shipped byte-identically by ``f + 1``
distinct responders.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Optional

from repro.replication.crypto import digest
from repro.replication.messages import (
    Batch,
    Checkpoint,
    ClientRequest,
    StateRequest,
    StateResponse,
)
from repro.replication.votes import CHECKPOINT, STATE

__all__ = ["CheckpointingMixin"]


class CheckpointingMixin:
    """Checkpoint votes, stable certificates, truncation, state transfer."""

    def _take_checkpoint(self, sequence: int) -> None:
        self._obs_checkpoints.inc()
        state = self.application.capture_state()
        state_digest = digest(state)
        # Kept beside the (immutable) state, so nothing digests it again.
        self._checkpoint_states[sequence] = (state, state_digest)
        message = Checkpoint(sequence=sequence, state_digest=state_digest, replica=self.replica_id)
        self._own_checkpoint = message
        self._record_checkpoint_vote(self.replica_id, message)
        self._multicast(message)
        self._maybe_stabilize(sequence, message.state_digest)

    def _record_checkpoint_vote(self, replica: Hashable, message: Checkpoint) -> None:
        if self.votes.vote(CHECKPOINT, 0, message.sequence, replica, message.state_digest, message):
            if self._events.enabled:
                self._event(
                    "checkpoint-vote",
                    sequence=message.sequence,
                    digest=message.state_digest,
                    voter=str(replica),
                    checkpoint_interval=self.checkpoint_interval,
                    log_window=self.log_window,
                )

    def checkpoint_vote_table(self) -> dict[Hashable, tuple[int, str]]:
        """The latest checkpoint vote seen per replica, as ``{replica:
        (sequence, state_digest)}``: what the health monitor merges to name
        the replicas whose digests diverge (the doctor reads the same from
        the ``checkpoint-vote`` events of a dump)."""
        return {
            replica: (sequence, state_digest)
            for _, sequence, replica, state_digest in self.votes.ballots(CHECKPOINT)
        }

    def _on_checkpoint(self, sender: Hashable, message: Checkpoint) -> None:
        if message.replica != sender or message.sequence <= self.stable_checkpoint:
            # A replica may only vouch for its own state.
            return
        self._record_checkpoint_vote(sender, message)
        self._maybe_stabilize(message.sequence, message.state_digest)

    def _maybe_stabilize(self, sequence: int, state_digest: str) -> None:
        if sequence <= self.stable_checkpoint:
            return
        if self.votes.certified(CHECKPOINT, 0, sequence, self.votes.quorum, state_digest) is None:
            return
        votes = self.votes.voters(CHECKPOINT, 0, sequence, state_digest)
        proof = tuple(votes[replica] for replica in sorted(votes, key=repr))
        self._stabilize(sequence, proof)

    def _stabilize(self, sequence: int, proof: tuple[Checkpoint, ...]) -> None:
        """Adopt a stable checkpoint certificate: truncate and slide the window."""
        self.stable_checkpoint = sequence
        self._checkpoint_proof = proof
        if self._events.enabled:
            self._event(
                "checkpoint-cert",
                sequence=sequence,
                digest=proof[0].state_digest if proof else None,
                votes=len(proof),
            )
        own_state = self._checkpoint_states.get(sequence)
        certified_digest = proof[0].state_digest if proof else None
        self._truncate(sequence)
        if own_state is not None and certified_digest not in (None, own_state[1]):
            # Our history contradicts the certified majority (possible only
            # outside the trust envelope): install the certified state even
            # though we already executed past it.
            self._checkpoint_states.pop(sequence, None)
            self._stable_state = None
            self._resync_below = sequence
            self._request_state(sequence)
        else:
            self._stable_state = own_state
            if self.last_executed < sequence:
                # The group advanced without us: fetch the checkpointed
                # state, as the history it covers is garbage-collected.
                self._request_state(sequence)
        self._slide_window()

    def _slide_window(self) -> None:
        """Resume work the old window blocked (every adopt-checkpoint path but
        ``_enter_view``, which re-proposes old sequences before fresh ones)."""
        self._maybe_drain()
        self._replay_out_of_window()

    def _truncate(self, sequence: int) -> None:
        """Garbage-collect all ordering state at or below ``sequence``."""
        self._obs_truncations.inc()
        self._truncate_log(sequence)
        self._checkpoint_states = {
            seq: stored for seq, stored in self._checkpoint_states.items() if seq >= sequence
        }

    # ------------------------------------------------------------------
    # Checkpoint state transfer (recovering / lagging replicas)
    # ------------------------------------------------------------------

    def _request_state(self, sequence: int) -> None:
        if self._events.enabled:
            self._event("state-request", sequence=sequence)
        self._multicast(StateRequest(sequence=sequence, replica=self.replica_id))

    def _on_state_request(self, sender: Hashable, message: StateRequest) -> None:
        if self._stable_state is None or self.stable_checkpoint < message.sequence:
            return
        if self._events.enabled:
            self._event("state-response", sequence=self.stable_checkpoint, requester=str(sender))
        state, state_digest = self._stable_state
        self._send(
            sender,
            StateResponse(
                sequence=self.stable_checkpoint,
                state_digest=state_digest,
                state=state,
                proof=self._checkpoint_proof,
                replica=self.replica_id,
                prepared=self._in_window_progress(),
            ),
        )

    def _in_window_progress(self) -> tuple:
        """Ordering progress above the stable checkpoint, for state transfer.

        One ``(sequence, view, batch, committed)`` entry per sequence this
        replica committed (view normalised to 0, so responders in different
        views corroborate each other) or prepared (certificate view kept:
        the requester can vote on it in that view only), so a recovering
        replica executes the committed tail and votes on the open instances
        without waiting for the next checkpoint.
        """
        entries: Dict[int, tuple[int, int, Batch, bool]] = {
            sequence: (sequence, view, batch, False)
            for sequence, (view, batch) in self._prepared_certificates().items()
        }
        for sequence, batch in self._committed.items():
            if sequence > self.stable_checkpoint:
                entries[sequence] = (sequence, 0, batch, True)
        return tuple(entries[sequence] for sequence in sorted(entries))

    def _on_state_response(self, sender: Hashable, message: StateResponse) -> None:
        if message.replica != sender:
            return
        if message.sequence <= self.last_executed and message.sequence != self._resync_below:
            return
        if digest(message.state) != message.state_digest:
            return
        certificate = self._checkpoint_certificate(message.proof)
        if certificate != (message.sequence, message.state_digest):
            return
        # The proof's inner votes are not origin-authenticated, so a lone
        # Byzantine responder could fabricate one: f + 1 distinct senders
        # must ship byte-identical state, so that one of them is correct.
        sequence, state_digest = message.sequence, message.state_digest
        self.votes.vote(STATE, 0, sequence, sender, state_digest, message)
        if self.votes.certified(STATE, 0, sequence, self.votes.weak, state_digest) is None:
            return
        matching = self.votes.voters(STATE, 0, sequence, state_digest).values()
        if self._events.enabled:
            self._event(
                "state-install", sequence=sequence, digest=state_digest, responders=len(matching)
            )
        self.application.install_state(message.state)
        self.last_executed = sequence
        self.next_sequence = max(self.next_sequence, sequence + 1)
        self._resync_below = None
        if sequence >= self.stable_checkpoint:
            self.stable_checkpoint = sequence
            self._checkpoint_proof = message.proof
            self._stable_state = (message.state, state_digest)
            self._checkpoint_states[sequence] = self._stable_state
        self._obs_state_transfers.inc()
        self._truncate(sequence)
        self._adopt_transferred_progress(sequence, matching)
        self.votes.clear(STATE)
        # Requests buffered before the blackout may have been executed and
        # garbage-collected by the group: the transferred reply cache is
        # the authority, and they must not read as overdue.
        for key in list(self._buffered):
            client, request_id = key
            latest = self.application.last_request_id(client)
            if latest is not None and latest >= request_id:
                self._forget_buffered(key)
                self._ordered_keys.discard(key)
        self._slide_window()
        self._execute_ready()

    def _valid_transfer_entry(self, item: Any, floor: int) -> bool:
        """Structural check of one transferred ``prepared`` entry."""
        if not (isinstance(item, tuple) and len(item) == 4):
            return False
        sequence, view, batch, committed = item
        if not isinstance(sequence, int) or isinstance(sequence, bool):
            return False
        if not isinstance(view, int) or isinstance(view, bool):
            return False
        if not isinstance(batch, Batch) or not isinstance(committed, bool):
            return False
        if sequence <= floor or sequence > floor + 2 * self.log_window:
            return False
        return all(
            isinstance(request, ClientRequest) and self._client_authenticated(request)
            for request in batch.requests
        )

    def _adopt_transferred_progress(self, floor: int, matching: Iterable[StateResponse]) -> None:
        """Adopt in-window ordering progress shipped with a state transfer.

        The ``prepared`` payload is no better authenticated than the state,
        so an entry counts only when ``f + 1`` matching responders ship it
        byte-identically (one of them is correct).  Committed batches join
        the execution queue; prepared ones are re-entered at the ordering
        layer, so this replica votes on them at once.
        """
        support: Dict[tuple, int] = {}
        for response in matching:
            prepared = response.prepared if isinstance(response.prepared, tuple) else ()
            # Per-response cap: a faulty responder's oversized payload must
            # not grow the support map beyond what a window can hold.
            for item in dict.fromkeys(prepared[: 4 * self.log_window]):
                if self._valid_transfer_entry(item, floor):
                    support[item] = support.get(item, 0) + 1
        adopted = sorted(
            (item for item, count in support.items() if count >= self.votes.weak),
            key=lambda item: item[0],
        )
        for sequence, view, batch, committed in adopted:
            self._ordered_keys.update(batch.keys())
            for request in batch.requests:
                self._unordered.pop(request.key, None)
            if committed:
                self._committed.setdefault(sequence, batch)
                continue
            if view != self.view:
                # A prepared certificate from another view cannot be voted
                # on here; the view-change protocol re-arbitrates it.
                continue
            if (view, sequence) not in self._pre_prepares:
                self._log_pre_prepare(view, sequence, batch)
            self._vote_on(view, sequence, digest(batch))

    def _valid_checkpoint_proof(self, proof: tuple, sequence: int, state_digest: str) -> bool:
        """Structural check of a checkpoint certificate: 2f + 1 distinct
        replicas vouching for the same (sequence, state digest)."""
        if len(proof) > self.n:
            # More votes than replicas means padding; reject rather than
            # store/iterate/re-propagate an attacker-sized tuple.
            return False
        if not all(
            isinstance(vote, Checkpoint)
            and (vote.sequence, vote.state_digest) == (sequence, state_digest)
            and vote.replica in self.replica_ids
            for vote in proof
        ):
            return False
        return len({vote.replica for vote in proof}) >= self.votes.quorum

    def _checkpoint_certificate(self, proof: tuple) -> Optional[tuple[int, str]]:
        """The (sequence, digest) a structurally valid proof certifies."""
        if not proof or not isinstance(proof[0], Checkpoint):
            return None
        head = proof[0]
        if self._valid_checkpoint_proof(proof, head.sequence, head.state_digest):
            return (head.sequence, head.state_digest)
        return None

