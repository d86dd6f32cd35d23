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
  installs it after validating it against the certificate digest (the
  minimal state transfer a recovering replica needs; incremental/partial
  transfer is future work).

Checkpoint messages carry no digital signatures, which matters where one
replica relays another's words: per-link MACs cannot be verified by a
third party, so the checkpoint proofs embedded in
``VIEW-CHANGE``/``NEW-VIEW``/``STATE-RESPONSE`` are only structurally
validated.  The mitigation on this side narrows (but does not close) the
gap: a state transfer installs only state shipped byte-identically by
``f + 1`` distinct responders.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from repro.replication.crypto import digest
from repro.replication.messages import (
    Batch,
    Checkpoint,
    ClientRequest,
    StateRequest,
    StateResponse,
)

__all__ = ["CheckpointingMixin"]


class CheckpointingMixin:
    """Checkpoint votes, stable certificates, truncation, state transfer."""

    def _take_checkpoint(self, sequence: int) -> None:
        self._obs_checkpoints.inc()
        state = self.application.capture_state()
        state_digest = digest(state)
        # Kept beside the (immutable) state, so nothing digests it again.
        self._checkpoint_states[sequence] = (state, state_digest)
        message = Checkpoint(
            sequence=sequence, state_digest=state_digest, replica=self.replica_id
        )
        self._own_checkpoint = message
        self._record_checkpoint_vote(self.replica_id, message)
        self._multicast(message)
        self._maybe_stabilize(sequence, message.state_digest)

    def _record_checkpoint_vote(self, replica: Hashable, message: Checkpoint) -> None:
        current = self._checkpoint_votes.get(replica)
        if current is None or message.sequence >= current.sequence:
            self._checkpoint_votes[replica] = message
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
        """The latest checkpoint vote this node has seen per replica,
        as ``{replica: (sequence, state_digest)}`` — what the health
        monitor merges to attribute a starved certificate to the
        replicas whose digests diverge.  The ``checkpoint-vote`` event
        carries the interval and log window beside the vote, so the
        doctor reads the same facts from a dump."""
        return {
            replica: (vote.sequence, vote.state_digest)
            for replica, vote in self._checkpoint_votes.items()
        }

    def _on_checkpoint(self, sender: Hashable, message: Checkpoint) -> None:
        if message.replica != sender:
            # A replica may only vouch for its own state.
            return
        if message.sequence <= self.stable_checkpoint:
            return
        self._record_checkpoint_vote(sender, message)
        self._maybe_stabilize(message.sequence, message.state_digest)

    def _maybe_stabilize(self, sequence: int, state_digest: str) -> None:
        if sequence <= self.stable_checkpoint:
            return
        votes = {
            replica: vote
            for replica, vote in self._checkpoint_votes.items()
            if vote.sequence == sequence and vote.state_digest == state_digest
        }
        if len(votes) < self.quorum:
            return
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
            # Our execution history contradicts the certified majority —
            # possible only outside the protocol's trust envelope (see the
            # module docstring), but self-healing is cheap: discard our
            # copy and install the certified state even though we already
            # executed past it.
            self._checkpoint_states.pop(sequence, None)
            self._stable_state = None
            self._resync_below = sequence
            self._request_state(sequence)
        else:
            self._stable_state = own_state
            if self.last_executed < sequence:
                # The group advanced without us (crash window, partition):
                # fetch the checkpointed state instead of replaying history
                # that has been garbage-collected.
                self._request_state(sequence)
        self._slide_window()

    def _slide_window(self) -> None:
        """Resume work the old window was blocking (shared tail of every
        adopt-checkpoint path except ``_enter_view``, which must re-propose
        the old sequences before it may drain fresh ones)."""
        self._maybe_drain()
        self._replay_out_of_window()

    def _truncate(self, sequence: int) -> None:
        """Garbage-collect all ordering state at or below ``sequence``."""
        self._obs_truncations.inc()
        self._truncate_log(sequence)
        self._checkpoint_votes = {
            replica: vote
            for replica, vote in self._checkpoint_votes.items()
            if vote.sequence > sequence
        }
        self._checkpoint_states = {
            seq: stored for seq, stored in self._checkpoint_states.items() if seq >= sequence
        }
        self._state_responses = {
            sender: response
            for sender, response in self._state_responses.items()
            if response.sequence > sequence
        }

    # ------------------------------------------------------------------
    # Checkpoint state transfer (recovering / lagging replicas)
    # ------------------------------------------------------------------

    def _request_state(self, sequence: int) -> None:
        if self._events.enabled:
            self._event("state-request", sequence=sequence)
        self._multicast(StateRequest(sequence=sequence, replica=self.replica_id))

    def _on_state_request(self, sender: Hashable, message: StateRequest) -> None:
        if self._stable_state is None:
            return
        if self.stable_checkpoint < message.sequence:
            return
        if self._events.enabled:
            self._event(
                "state-response", sequence=self.stable_checkpoint, requester=str(sender)
            )
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
        replica has committed (authoritative batch, view normalised to 0 so
        responders in different views still corroborate each other) or
        prepared (certificate view kept — the requester can only vote on it
        in that view).  Shipping these alongside the checkpoint lets a
        recovering replica execute the committed tail and vote on the open
        instances immediately instead of waiting for the next checkpoint
        boundary.
        """
        entries: Dict[int, tuple[int, Batch, bool]] = {
            sequence: (view, batch, False)
            for sequence, (view, batch) in self._prepared_certificates().items()
        }
        for sequence, batch in self._committed.items():
            if sequence > self.stable_checkpoint:
                entries[sequence] = (0, batch, True)
        return tuple(
            (sequence, view, batch, committed)
            for sequence, (view, batch, committed) in sorted(entries.items())
        )

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
        # The proof's inner Checkpoint votes are not origin-authenticated
        # (per-link MACs cannot be verified by a third party), so a lone
        # Byzantine responder could fabricate one.  Require f + 1 distinct
        # senders shipping byte-identical state: at least one is correct.
        self._state_responses[sender] = message
        matching = [
            response
            for response in self._state_responses.values()
            if response.sequence == message.sequence
            and response.state_digest == message.state_digest
        ]
        if len(matching) < self.f + 1:
            return
        if self._events.enabled:
            self._event(
                "state-install",
                sequence=message.sequence,
                digest=message.state_digest,
                responders=len(matching),
            )
        self.application.install_state(message.state)
        self.last_executed = message.sequence
        self.next_sequence = max(self.next_sequence, message.sequence + 1)
        self._resync_below = None
        if message.sequence >= self.stable_checkpoint:
            self.stable_checkpoint = message.sequence
            self._checkpoint_proof = message.proof
            self._stable_state = (message.state, message.state_digest)
            self._checkpoint_states[message.sequence] = self._stable_state
        self._obs_state_transfers.inc()
        self._truncate(message.sequence)
        self._adopt_transferred_progress(message.sequence, matching)
        self._state_responses.clear()
        # Requests buffered before the blackout may have been executed (and
        # garbage-collected) by the rest of the group; the transferred
        # reply cache is the authority.  Dropping them here keeps them from
        # reading as overdue and triggering spurious view changes.
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

    def _adopt_transferred_progress(self, floor: int, matching: list) -> None:
        """Adopt in-window ordering progress shipped with a state transfer.

        The ``prepared`` payload is no better authenticated than the state
        itself, so the same rule applies: an entry counts only when every
        one of the ``f + 1`` matching responders ships it byte-identically
        (at least one of them is correct, and a correct replica only
        reports batches it really committed or prepared).  Committed
        batches join the execution queue directly; prepared-but-open
        instances are re-entered at the ordering layer so this replica can
        cast its votes immediately.
        """
        threshold = self.f + 1
        support: Dict[tuple, int] = {}
        for response in matching:
            prepared = response.prepared if isinstance(response.prepared, tuple) else ()
            seen: set[tuple] = set()
            # Per-response cap: a faulty responder's oversized payload must
            # not grow the support map beyond what a window can hold.
            for item in prepared[: 4 * self.log_window]:
                if item in seen or not self._valid_transfer_entry(item, floor):
                    continue
                seen.add(item)
                support[item] = support.get(item, 0) + 1
        adopted = sorted(
            (item for item, count in support.items() if count >= threshold),
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

    def _valid_checkpoint_proof(
        self, proof: tuple, sequence: int, state_digest: str
    ) -> bool:
        """Structural check of a checkpoint certificate: 2f + 1 distinct
        replicas vouching for the same (sequence, state digest)."""
        if len(proof) > self.n:
            # More votes than replicas means padding; reject rather than
            # store/iterate/re-propagate an attacker-sized tuple.
            return False
        replicas = set()
        for vote in proof:
            if not isinstance(vote, Checkpoint):
                return False
            if vote.sequence != sequence or vote.state_digest != state_digest:
                return False
            if vote.replica not in self.replica_ids:
                return False
            replicas.add(vote.replica)
        return len(replicas) >= self.quorum

    def _checkpoint_certificate(self, proof: tuple) -> Optional[tuple[int, str]]:
        """The (sequence, digest) a structurally valid proof certifies."""
        if not proof or not isinstance(proof[0], Checkpoint):
            return None
        head = proof[0]
        if self._valid_checkpoint_proof(proof, head.sequence, head.state_digest):
            return (head.sequence, head.state_digest)
        return None

