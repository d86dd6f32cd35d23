"""no-polling-waits trip: a subscription sleeps until an event lands."""

import time


class Subscription:
    def next(self, timeout):
        while not self._buffer:
            time.sleep(0.01)
        return self._buffer.popleft()
