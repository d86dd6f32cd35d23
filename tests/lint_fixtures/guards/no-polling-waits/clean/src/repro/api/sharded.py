"""no-polling-waits clean: a blocking call settles its future (a
``sleep`` named in a comment or a docstring is not a call)."""


class ShardedSpace:
    def _drive(self, future, timeout=None):
        self._service.network.settle(future, timeout)
