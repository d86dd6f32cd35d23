"""The single-group deployment is a one-shard cluster.

``connect("replicated")`` builds a :class:`~repro.cluster.ShardedPEATS`
of one shard.  It keeps the plain ``replica-i`` ids, never routes and
never gathers, so each operation below costs what one group's ordered
request costs — or, for a read, one round trip on the read-only lane:
the delivered-message counts are pinned.
"""

import pytest

from repro.api import connect
from repro.cluster import HashRouting, ShardedPEATS
from repro.errors import ReplicationError, TupleSpaceError
from repro.obs import Observability
from repro.replication import ReplicatedPEATS, SimulatedNetwork
from repro.replication import ReplicaFaultMode, fault_of
from repro.sim import open_sim_policy
from repro.tuples import ANY, entry, template


def delivered(space):
    return space.network.statistics["delivered"]


def seeded(obs=None):
    space = connect("replicated", policy=open_sim_policy(), obs=obs)
    view = space.bind("p1")
    view.out(entry("A", 1))
    view.out(entry("B", 2))
    return space, view


def rd_woken_by_push(space, view):
    writer = space.bind("p2")
    space.network.schedule_after(20.0, lambda: writer.submit_out(entry("E", 5)))
    return view.rd(template("E", ANY))


#: Each operation on the one group, with its result and the messages the
#: simulated network delivers for it: one ordered request to four
#: replicas is 32, and a gather round would add another per probe.  An
#: rdp takes the read-only lane: four requests and four replies, counted
#: at completion as 9 — the 2f+1 vote leaves one reply in flight, and
#: the two the seeding ``out`` left in flight land in the window.
ONE_GROUP_COSTS = {
    "rdp": (lambda space, view: view.rdp(template(ANY, 2)), entry("B", 2), 9),
    "inp": (lambda space, view: view.inp(template(ANY, 2)), entry("B", 2), 32),
    "cas": (
        lambda space, view: view.cas(template(ANY, 3), entry("C", 3)),
        (True, None),
        32,
    ),
    "transact": (
        lambda space, view: view.transact()
        .in_(template("A", ANY))
        .out(entry("D", 4))
        .commit()
        .results,
        (entry("A", 1), entry("D", 4)),
        32,
    ),
    "rd woken by a push": (rd_woken_by_push, entry("E", 5), 57),
}


@pytest.mark.parametrize("name", sorted(ONE_GROUP_COSTS))
def test_one_group_operation_costs_one_ordered_request(name):
    operation, result, messages = ONE_GROUP_COSTS[name]
    space, view = seeded()
    before = delivered(space)
    assert operation(space, view) == result
    assert delivered(space) - before == messages


def test_one_group_never_routes_or_gathers():
    obs = Observability()
    space, view = seeded(obs)
    view.rdp(template(ANY, 2))
    view.inp(template(ANY, 1))
    view.cas(template(ANY, 3), entry("C", 3))
    kinds = {
        event["kind"]
        for node in obs.events.dump()["nodes"].values()
        for event in node["events"]
    }
    assert "route" not in kinds
    families = obs.registry.snapshot()
    assert not {
        "cluster_routed_total",
        "cluster_scatter_rounds_total",
        "cluster_scatter_probes_total",
    } & set(families)


def test_replicated_is_sharded_at_one_shard():
    replicated = connect("replicated", policy=open_sim_policy())
    one_shard = connect("sharded", policy=open_sim_policy(), shards=1)
    assert replicated.backend == one_shard.backend == "replicated"
    ids = ("replica-0", "replica-1", "replica-2", "replica-3")
    assert replicated.service.replica_ids == one_shard.service.replica_ids == ids
    stats = replicated.stats()
    assert stats.keys() == one_shard.stats().keys()
    assert tuple(stats["nodes"]) == tuple(stats["notify"]["waiters"]) == ids
    sharded = connect("sharded", policy=open_sim_policy())
    assert sharded.backend == "sharded"
    assert sharded.service.replica_ids[0] == "shard-0:replica-0"
    stats = sharded.stats()
    assert "nodes" not in stats and tuple(stats["shards"]) == (0, 1)
    assert tuple(stats["notify"]["waiters"]) == (0, 1)


def test_a_one_shard_cluster_answers_to_both_names():
    cluster = ShardedPEATS(open_sim_policy(), shards=1)
    assert connect(service=cluster, backend="replicated").backend == "replicated"
    assert connect(service=cluster, backend="sharded").backend == "replicated"
    with pytest.raises(TupleSpaceError, match="disagrees"):
        connect(service=ShardedPEATS(open_sim_policy()), backend="replicated")


def test_a_bare_replica_group_is_not_a_deployment():
    with pytest.raises(TupleSpaceError, match=r"ShardedPEATS\(policy, shards=1\)"):
        connect(service=ReplicatedPEATS(open_sim_policy(), network=SimulatedNetwork()))


@pytest.mark.parametrize("options", [{"shards": 4}, {"shards": 0}, {"routing": HashRouting()}])
def test_replicated_refuses_contradictory_arguments(options):
    with pytest.raises(TupleSpaceError, match="replicated backend"):
        connect("replicated", policy=open_sim_policy(), **options)


def test_replicated_accepts_one_shard_and_sharded_defaults_to_two():
    assert connect("replicated", policy=open_sim_policy(), shards=1).service.n_shards == 1
    assert connect("sharded", policy=open_sim_policy()).service.n_shards == 2


@pytest.mark.parametrize(
    "backend, shards, outside",
    [("replicated", 1, (1, 0)), ("replicated", 1, 9), ("sharded", 2, (2, 0)), ("sharded", 2, 9)],
)
def test_replica_fault_keys_reach_the_replica_or_raise(backend, shards, outside):
    options = {"shards": shards} if backend == "sharded" else {}
    space = connect(
        backend,
        policy=open_sim_policy(),
        replica_faults={(0, 2): ReplicaFaultMode.CRASHED},
        **options,
    )
    modes = [fault_of(node) for node in space.service.nodes]
    assert modes[2] is ReplicaFaultMode.CRASHED
    assert modes.count(ReplicaFaultMode.CRASHED) == 1
    with pytest.raises(ReplicationError, match="outside the cluster"):
        connect(
            backend,
            policy=open_sim_policy(),
            replica_faults={outside: ReplicaFaultMode.LYING},
            **options,
        )
