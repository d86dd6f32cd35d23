"""one-deployment-shape trip: the single-group handle is back, with
its own client."""

from repro.api.space import Space
from repro.replication.client import PEATSClient


class ReplicatedSpace(Space):
    backend = "replicated"

    def _client(self, process):
        return PEATSClient(process, self._service.replica_ids, 1, self.network)
