"""one-deployment-shape clean: the client class is defined, subclassed
and named in a repr, but built only by the cluster."""

from repro.replication.client import PEATSClient


class ShardedClient(PEATSClient):
    def __repr__(self):
        return f"ShardedClient(client_id={self.client_id!r})"
