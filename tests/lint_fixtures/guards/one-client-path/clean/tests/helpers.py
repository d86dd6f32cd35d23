"""one-client-path clean: a test helper whose name contains the retired
``client_view`` as a substring, which the old grep step tripped on."""


def _client_views(space):
    return [space.bind(process) for process in ("p", "q")]
