"""one-deployment-shape clean: one networked handle.  The retired
ReplicatedSpace is named only in this docstring."""

from repro.api.space import Space


class ShardedSpace(Space):
    def __init__(self, service):
        super().__init__(service)
        self.backend = "sharded" if service.n_shards > 1 else "replicated"
