"""one-client-tally clean: one Tally vote per reply.  ``hexdigest()``
contains ``digest(`` as a substring, which the old grep step tripped on."""

import hashlib


def accept(pending, sender, reply):
    return pending.tally.vote(sender, reply.result, claimed=reply.result_digest)


def fingerprint(blob):
    return hashlib.sha256(blob).hexdigest()
