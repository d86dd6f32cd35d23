"""one-deployment-shape trip: the home of the one client site."""

from repro.cluster.client import ShardedClient


class ShardedPEATS:
    def client(self, process):
        return ShardedClient(process, self)
