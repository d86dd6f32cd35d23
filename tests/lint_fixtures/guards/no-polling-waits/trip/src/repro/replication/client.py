"""no-polling-waits trip: the client sleeps between checks of its request."""

import time


class PEATSClient:
    def invoke(self, operation, arguments):
        pending = self.submit(operation, arguments)
        while not pending.done:
            time.sleep(0.0002)
        return pending.result()
