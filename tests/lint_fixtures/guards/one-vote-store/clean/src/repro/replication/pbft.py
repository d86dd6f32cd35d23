"""one-vote-store clean: the node casts ballots and asks the store; a
name that only ends like a retired table (``_pre_prepares``) is its own."""

from repro.replication.votes import PREPARE


class OrderingNode:
    def _on_prepare(self, sender, message):
        self._pre_prepares.get((message.view, message.sequence))
        self.votes.vote(PREPARE, message.view, message.sequence, sender, message.batch_digest)
        return self.votes.certified(
            PREPARE, message.view, message.sequence, self.votes.quorum, message.batch_digest
        )

    def _answer_read(self, request):
        return self.application.execute_read_only(request)
