"""read-only-lane trip: a handle reads a replica's state directly,
skipping both the ordering and the hold."""


class ShardedSpace:
    def rdp(self, request):
        return self._service.nodes[0].application.execute_read_only(request)
