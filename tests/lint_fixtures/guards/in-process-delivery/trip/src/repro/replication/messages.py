"""in-process-delivery trip: a serialisation outside crypto.py."""

from repro.replication.crypto import canonical_bytes


def wire_size(message):
    return len(canonical_bytes(message))
