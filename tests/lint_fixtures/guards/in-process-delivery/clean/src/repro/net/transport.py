"""in-process-delivery clean: the one place that wakes the loop."""


class Reactor:
    def call_soon(self, callback):
        self._mailbox.append(callback)
        self._loop.call_soon_threadsafe(self._wake)
