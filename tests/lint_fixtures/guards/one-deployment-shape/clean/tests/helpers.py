"""one-deployment-shape clean: tests may build a raw client over a
replica group (the guard scopes src/ only)."""

from repro.replication.client import PEATSClient


def raw_client(group):
    return PEATSClient("p0", group.replica_ids, 1, group.network)
