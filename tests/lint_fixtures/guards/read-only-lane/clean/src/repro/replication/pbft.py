"""read-only-lane clean: the one unordered-execution site, behind the
commit-frontier hold."""


class OrderingNode:
    def _answer_read(self, request):
        if self.last_executed < self.commit_frontier:
            self._held_reads[request.key] = request
            return
        result = self.application.execute_read_only(request)
        if result is not None:
            self._reply(request, result)
