"""one-client-path trip: a retired client view is called again."""


def view(service, process):
    return service.client_view(process)
