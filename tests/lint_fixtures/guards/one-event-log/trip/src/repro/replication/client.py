"""one-event-log trip: one moment written to two recorders."""

from repro.obs.flight import FlightRecorder
from repro.obs.trace import Tracer


class PEATSClient:
    def __init__(self):
        self._tracer, self._flight = Tracer(), FlightRecorder()
