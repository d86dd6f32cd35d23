"""ordering-core-purity trip: the ordering node learns what it orders."""


class OrderingNode:
    def _execute_batch(self, batch):
        for request in batch:
            self.application.execute(request)
        # wake the waiters whose templates this batch matched
        self.application.drain_pushes()

    def _answer_read(self, request):
        return self.application.execute_read_only(request)
