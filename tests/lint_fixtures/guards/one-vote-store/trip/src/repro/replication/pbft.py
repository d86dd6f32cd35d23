"""one-vote-store trip: the node counts prepares in a table of its own."""


class OrderingNode:
    def _on_prepare(self, sender, message):
        key = (message.view, message.sequence, message.batch_digest)
        self._prepares.setdefault(key, set()).add(sender)
        if len(self._prepares[key]) >= self.quorum:
            self._sent_commit.add(key[:2])

    def _join(self, votes):
        return len(votes) >= self.f + 1

    def _answer_read(self, request):
        return self.application.execute_read_only(request)
