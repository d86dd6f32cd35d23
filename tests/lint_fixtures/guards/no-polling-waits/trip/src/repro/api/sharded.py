"""no-polling-waits trip: a blocking call polls its future."""

import time


class ShardedSpace:
    def _drive(self, future):
        while not future.done:
            time.sleep(0.001)
