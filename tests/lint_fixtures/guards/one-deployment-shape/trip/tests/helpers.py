"""one-deployment-shape trip: a test wraps a group in the retired handle."""

from repro.api.replicated import ReplicatedSpace


def handle(group):
    return ReplicatedSpace(group)
