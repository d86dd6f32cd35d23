"""one-event-log clean: the guard scopes src/ only, so a test may keep
its own Tracer."""


class Tracer:
    pass
