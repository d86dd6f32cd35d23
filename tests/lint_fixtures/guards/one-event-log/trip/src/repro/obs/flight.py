"""one-event-log trip: the per-node rings are a second recorder again."""


class FlightRecorder:
    def record(self, kind, node, now, **fields):
        self.rings.setdefault(node, []).append({"kind": kind, "t": now, **fields})
