"""one-client-path clean: the caller is named through bind(process)."""


def propose(space, process, value):
    if not isinstance(value, str):
        raise TypeError("a proposal is a string")
    try:
        return space.bind(process).cas(("DECISION", None), ("DECISION", value))
    except ValueError:
        return None
