"""no-polling-waits clean: a subscription waits on the condition its
deliveries notify."""

import threading


class Subscription:
    def __init__(self):
        self._changed = threading.Condition()

    def wait(self, seconds):
        with self._changed:
            return self._changed.wait_for(lambda: self._buffer, seconds)
