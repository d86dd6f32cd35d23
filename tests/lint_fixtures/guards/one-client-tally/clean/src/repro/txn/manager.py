"""one-client-tally clean: pushes are forwarded to the one tally."""


class TransactionManager:
    def __init__(self):
        self._watchers = {}
