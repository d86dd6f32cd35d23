"""one-client-tally trip: the client hashes a result beside the tally."""

from repro.replication.crypto import digest


def accept(pending, sender, reply):
    if digest(reply.result) != reply.result_digest:
        return None
    return pending.tally.vote(sender, reply.result, claimed=reply.result_digest)
