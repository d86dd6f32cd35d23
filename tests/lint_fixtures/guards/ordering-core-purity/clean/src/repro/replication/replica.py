"""ordering-core-purity clean: outside the ordering core the replica
queues its Notify wake-ups on the one outbox."""


class Replica:
    def drain_pushes(self):
        pushes, self._outbox = self._outbox, []
        return pushes
