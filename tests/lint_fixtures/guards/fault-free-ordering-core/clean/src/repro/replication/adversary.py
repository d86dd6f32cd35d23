"""fault-free-ordering-core clean: outside the ordering core the presets
name the modes."""

import enum


class ReplicaFaultMode(enum.Enum):
    CORRECT = "correct"
    MUTE = "mute"


def fault_of(node):
    return node.network.fault_of(node.replica_id)
