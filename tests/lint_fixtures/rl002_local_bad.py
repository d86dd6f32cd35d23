# repro-lint: scope=RL002
"""RL002 positive fixture: an unguarded log held in a local name, and an
unguarded helper call."""


class Node:
    def __init__(self, obs):
        self.obs = obs

    def handle(self, payload):
        events = self.obs.events
        events.record("msg-recv", "node", 0.0, type=type(payload).__name__)

    def checkpoint(self):
        self._event_note()

    def _event_note(self):
        # Exempt: inside an _event* helper the guard lives at call sites.
        self.obs.events.record("checkpoint-vote", "node", 0.0)
