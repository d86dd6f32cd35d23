# repro-lint: scope=RL002
"""RL002 negative fixture: a log held in a local name, and a helper call,
behind .enabled guards."""


class Node:
    def __init__(self, obs):
        self.obs = obs

    def handle(self, payload):
        events = self.obs.events
        if events.enabled:
            events.record("msg-recv", "node", 0.0, type=type(payload).__name__)

    def checkpoint(self):
        if self.obs.events.enabled:
            self._event_note()

    def _event_note(self):
        self.obs.events.record("checkpoint-vote", "node", 0.0)
