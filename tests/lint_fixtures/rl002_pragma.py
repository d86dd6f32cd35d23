# repro-lint: scope=RL002
"""RL002 pragma fixture: an intentionally unguarded call, justified."""


class Node:
    def __init__(self, events):
        self._events = events

    def handle(self, key):
        self._events.record("submit", "node", 0.0, key=key)  # repro-lint: disable=RL002
