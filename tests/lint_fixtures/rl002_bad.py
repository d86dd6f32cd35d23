# repro-lint: scope=RL002
"""RL002 positive fixture: unguarded event-log call sites."""


class Node:
    def __init__(self, events):
        self._events = events

    def handle(self, key):
        self._events.record("submit", "node", 0.0, key=key)

    def flush(self):
        self._event_flush()

    def _event_flush(self):
        # Exempt: inside an _event* helper the guard lives at call sites.
        self._events.record("complete", "node", 0.0)
