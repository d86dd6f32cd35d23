"""no-polling-waits trip: a local blocking read sleeps between probes."""

import time


class LocalSpace:
    def _read(self, template, deadline):
        while self._peats.rdp(template) is None and time.monotonic() < deadline:
            time.sleep(0.05)
