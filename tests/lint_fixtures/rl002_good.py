# repro-lint: scope=RL002
"""RL002 negative fixture: every hot-path call behind an .enabled guard."""


class Node:
    def __init__(self, events):
        self._events = events

    def handle(self, key):
        if self._events.enabled:
            self._events.record("submit", "node", 0.0, key=key)

    def flush(self):
        if self._events.enabled:
            self._event_flush()

    def _event_flush(self):
        self._events.record("complete", "node", 0.0)
