"""one-vote-store clean: the store spells the two thresholds."""


class VoteStore:
    def __init__(self, senders, f):
        self.senders = frozenset(senders)
        self.f = f
        self.weak = f + 1
        self.quorum = 2 * f + 1
