"""one-client-path trip: the speculative process= call bind() replaced."""


def propose(space, process, value):
    try:
        return space.cas(("DECISION", None), ("DECISION", value), process=process)
    except TypeError:
        return space.cas(("DECISION", None), ("DECISION", value))
