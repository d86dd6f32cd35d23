"""one-deployment-shape clean: the one client site, for every shard
count."""

from repro.cluster.client import ShardedClient


class ShardedPEATS:
    def client(self, process):
        if process not in self._clients:
            self._clients[process] = ShardedClient(process, self)
        return self._clients[process]
