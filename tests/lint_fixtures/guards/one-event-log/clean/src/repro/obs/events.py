"""one-event-log clean: one log, two read views.  The retired Tracer and
FlightRecorder are named only in this docstring."""


class EventLog:
    def record(self, kind, node, now, *, key=None, **fields):
        self.rings.setdefault(node, []).append({"kind": kind, "t": now, **fields})
