"""matching-kernel clean: one loop, no all() generator per call."""


def matches(template, entry):
    if len(template) != len(entry):
        return False
    for field, value in zip(template, entry):
        if field is not None and field != value:
            return False
    return True


def register(registry):
    registry.install(matches)
