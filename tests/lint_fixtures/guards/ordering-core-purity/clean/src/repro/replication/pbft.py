"""ordering-core-purity clean: the node orders opaque requests."""


class OrderingNode:
    def _execute_batch(self, batch):
        for request in batch:
            self.application.execute(request)
        # hand the application's outbox to the transport, unread
        self.application.drain_pushes()

    def _answer_read(self, request):
        return self.application.execute_read_only(request)
