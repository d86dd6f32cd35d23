"""no-polling-waits clean: transport.py alone sleeps — run_until polls a
predicate nothing signals, run_for waits out a duration — and settle
waits on the future."""

import time


class RealTransport:
    def run_until(self, condition):
        while not condition():
            time.sleep(0.0002)
        return True

    def run_for(self, duration):
        time.sleep(duration / 1000.0)

    def settle(self, future, timeout=None):
        return future.wait(timeout)
