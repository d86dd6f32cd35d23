"""matching-kernel trip: a frame per field and a generator per call."""


def _field_matches(field, value):
    return field is None or field == value


def matches(template, entry):
    return len(template) == len(entry) and all(
        _field_matches(field, value) for field, value in zip(template, entry)
    )
