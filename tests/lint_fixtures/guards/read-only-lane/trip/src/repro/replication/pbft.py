"""read-only-lane trip: the home of the one unordered-execution site."""


class OrderingNode:
    def _answer_read(self, request):
        if self.last_executed < self.commit_frontier:
            self._held_reads[request.key] = request
            return
        return self.application.execute_read_only(request)

    def _on_request(self, sender, request):
        # a second site, past the hold
        return self.application.execute_read_only(request)
