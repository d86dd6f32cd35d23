"""one-event-log trip: the per-request recorder is a module of its own
again."""


class Tracer:
    def record(self, phase, key, node, now):
        self.spans.setdefault(key, {}).setdefault(phase, (now, node))
