"""one-client-tally trip: a second tally of transaction pushes."""


class TransactionManager:
    def __init__(self):
        self._txn_pushes = {}
