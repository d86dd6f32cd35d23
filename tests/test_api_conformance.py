"""Backend-conformance suite for the unified API (repro.api).

The same tuple-space programs run — via ``connect()`` — against all three
deployment shapes, and every observable result must be identical: return
values, denial behaviour, blocking-read semantics, the timeout exception,
and the future (``submit_*``) forms.  A hypothesis property generates
random operation sequences and checks observable equivalence wholesale.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BoundSpace, OperationFuture, connect
from repro.cluster.routing import ExplicitRouting
from repro.errors import (
    AccessDeniedError,
    OperationTimeoutError,
    TupleSpaceError,
)
from repro.peo import PEATS
from repro.peo.base import DeniedResult
from repro.policy.policy import AccessPolicy
from repro.policy.rules import Rule
from repro.tspace import AugmentedTupleSpace, TupleSpace
from repro.tuples import ANY, entry, template

BACKENDS = ("local", "replicated", "sharded")

#: Blocking-read budgets per backend, in that backend's time unit
#: (wall-clock seconds locally, virtual milliseconds on the simulated
#: deployments).
TIMEOUTS = {"local": 0.05, "replicated": 40.0, "sharded": 40.0}


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="api-open"
    )


def no_removal_policy() -> AccessPolicy:
    """Reads and writes allowed, destructive reads denied (fail-safe)."""
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "cas")], name="api-no-removal"
    )


def make_space(backend: str, policy_factory=open_policy):
    if backend == "local":
        return connect("local", policy=policy_factory())
    if backend == "replicated":
        return connect("replicated", policy=policy_factory(), f=1)
    return connect("sharded", policy=policy_factory(), shards=2, f=1)


def run_on_backend(backend, program, policy_factory=open_policy):
    """Build a fresh deployment and run ``program`` against a bound view."""
    space = make_space(backend, policy_factory)
    return program(space.bind("p1"), backend)


def assert_identical_across_backends(program, policy_factory=open_policy):
    observed = {
        backend: run_on_backend(backend, program, policy_factory)
        for backend in BACKENDS
    }
    reference = observed["local"]
    for backend, results in observed.items():
        assert results == reference, f"{backend} diverged: {results} != {reference}"


class TestSameProgramEveryBackend:
    def test_out_rdp_inp_roundtrip(self):
        def program(view: BoundSpace, backend: str):
            results = []
            results.append(view.out(entry("A", 1)))
            results.append(view.out(entry("A", 2)))
            results.append(view.rdp(template("A", ANY)))
            results.append(view.inp(template("A", ANY)))
            results.append(view.inp(template("A", ANY)))
            results.append(view.inp(template("A", ANY)))
            return results

        assert_identical_across_backends(program)

    def test_cas_decides_once(self):
        def program(view: BoundSpace, backend: str):
            first = view.cas(template("D", ANY), entry("D", "v1"))
            second = view.cas(template("D", ANY), entry("D", "v2"))
            return [first, second, view.rdp(template("D", ANY))]

        assert_identical_across_backends(program)

    def test_blocking_reads_return_produced_tuples(self):
        def program(view: BoundSpace, backend: str):
            view.out(entry("B", "ready"))
            seen = view.rd(template("B", ANY), timeout=TIMEOUTS[backend])
            taken = view.in_(template("B", ANY), timeout=TIMEOUTS[backend])
            return [seen, taken, view.rdp(template("B", ANY))]

        assert_identical_across_backends(program)

    def test_lock_program_runs_unmodified(self):
        """The acceptance-criterion program: one mutex token, two workers."""

        def program(view: BoundSpace, backend: str):
            alice = view.space.bind("alice")
            bob = view.space.bind("bob")
            results = []
            results.append(alice.out(entry("LOCK", "free")))
            token = alice.inp(template("LOCK", "free"))
            results.append(token)
            results.append(bob.inp(template("LOCK", "free")))  # held: None
            results.append(alice.out(entry("LOCK", "free")))
            handover = bob.in_(template("LOCK", ANY), timeout=TIMEOUTS[backend])
            results.append(handover)
            return results

        assert_identical_across_backends(program)


class TestUniformTimeoutModel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rd_timeout_raises_the_shared_exception(self, backend):
        view = make_space(backend).bind("p1")
        probe = template("NOPE", ANY)
        with pytest.raises(OperationTimeoutError) as excinfo:
            view.rd(probe, timeout=TIMEOUTS[backend])
        assert repr(probe) in str(excinfo.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_timeout_raises_the_shared_exception(self, backend):
        view = make_space(backend).bind("p1")
        with pytest.raises(OperationTimeoutError):
            view.in_(template("NOPE", ANY), timeout=TIMEOUTS[backend])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deprecated_builtin_timeout_still_catches(self, backend):
        view = make_space(backend).bind("p1")
        with pytest.raises(TimeoutError):
            view.rd(template("NOPE", ANY), timeout=TIMEOUTS[backend])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timeout_is_a_library_error_too(self, backend):
        view = make_space(backend).bind("p1")
        with pytest.raises(TupleSpaceError):
            view.rd(template("NOPE", ANY), timeout=TIMEOUTS[backend])


class TestUniformDenialModel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_denied_inp_reads_as_no_match(self, backend):
        view = make_space(backend, no_removal_policy).bind("p1")
        assert view.out(entry("A", 1)) is True
        assert view.inp(template("A", ANY)) is None
        assert view.rdp(template("A", ANY)) == entry("A", 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_denied_blocking_in_raises_access_denied(self, backend):
        view = make_space(backend, no_removal_policy).bind("p1")
        view.out(entry("A", 1))
        with pytest.raises(AccessDeniedError):
            view.in_(template("A", ANY), timeout=TIMEOUTS[backend])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_denied_out_is_falsy(self, backend):
        def reads_only() -> AccessPolicy:
            return AccessPolicy([Rule("rdp", "rdp")], name="api-reads-only")

        view = make_space(backend, reads_only).bind("p1")
        result = view.out(entry("A", 1))
        assert not result
        assert isinstance(result, DeniedResult)
        assert view.rdp(template("A", ANY)) is None


class TestFutureFormEveryBackend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_out_resolves_with_payload_and_callback(self, backend):
        space = make_space(backend)
        view = space.bind("p1")
        seen = []
        future = view.submit_out(entry("A", 1), on_complete=seen.append)
        assert isinstance(future, OperationFuture)
        if backend != "local":
            space.network.run_until(lambda: future.done)
        assert future.done
        assert future.result() == ("OK", True)
        assert seen == [future]
        assert future.latency is not None and future.latency >= 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_cas_and_probe_payloads(self, backend):
        space = make_space(backend)
        view = space.bind("p1")
        futures = [
            view.submit_cas(template("D", ANY), entry("D", 9)),
            view.submit_rdp(template("D", ANY)),
        ]
        if backend != "local":
            for future in futures:
                space.network.run_until(lambda: future.done)
        assert futures[0].result() == ("OK", (True, None))
        assert futures[1].result() == ("OK", entry("D", 9))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_rd_resolves_when_tuple_exists(self, backend):
        space = make_space(backend)
        view = space.bind("p1")
        view.out(entry("B", "x"))
        future = view.submit_rd(template("B", ANY), timeout=TIMEOUTS[backend])
        if backend != "local":
            space.network.run_until(lambda: future.done)
        assert future.result() == ("OK", entry("B", "x"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_rd_times_out_with_the_shared_exception(self, backend):
        space = make_space(backend)
        future = space.submit_rd(
            template("NOPE", ANY), process="p1", timeout=TIMEOUTS[backend]
        )
        if backend != "local":
            space.network.run_until(lambda: future.done)
        assert isinstance(future.exception, OperationTimeoutError)


# ----------------------------------------------------------------------
# Hypothesis: observable equivalence over random operation sequences
# ----------------------------------------------------------------------

_names = st.sampled_from(["A", "B", "C"])
_values = st.integers(min_value=0, max_value=3)


def _operations():
    return st.lists(
        st.one_of(
            st.tuples(st.just("out"), _names, _values),
            st.tuples(st.just("rdp"), _names, _values),
            st.tuples(st.just("inp"), _names, _values),
            st.tuples(st.just("cas"), _names, _values),
        ),
        min_size=1,
        max_size=8,
    )


def _apply(view: BoundSpace, operations) -> list:
    observed = []
    for kind, name, value in operations:
        if kind == "out":
            observed.append(("out", bool(view.out(entry(name, value)))))
        elif kind == "rdp":
            observed.append(("rdp", view.rdp(template(name, ANY))))
        elif kind == "inp":
            observed.append(("inp", view.inp(template(name, ANY))))
        else:
            inserted, existing = view.cas(template(name, ANY), entry(name, value))
            observed.append(("cas", bool(inserted), existing))
    return observed


@settings(max_examples=12, deadline=None)
@given(operations=_operations())
def test_random_programs_observably_equivalent(operations):
    """Any probe sequence yields identical results and final contents."""
    outcomes = {}
    for backend in BACKENDS:
        view = make_space(backend).bind("p1")
        results = _apply(view, operations)
        contents = sorted(view.snapshot(), key=repr)
        outcomes[backend] = (results, contents)
    assert outcomes["replicated"] == outcomes["local"]
    assert outcomes["sharded"] == outcomes["local"]


def test_connect_validates_inputs():
    with pytest.raises(TupleSpaceError):
        connect()
    with pytest.raises(TupleSpaceError):
        connect("interstellar", policy=open_policy())
    with pytest.raises(TupleSpaceError):
        connect("local")
    sharded = make_space("sharded")
    assert connect(service=sharded.service).backend == "sharded"
    with pytest.raises(TupleSpaceError):
        connect("local", service=sharded.service)


# ----------------------------------------------------------------------
# Membership: ``x in space`` answers as the store's ``matches`` does
# ----------------------------------------------------------------------


def _handles_holding_k1(kind: str) -> list:
    """Every membership-testing handle on a space holding only ⟨K, 1⟩."""
    if kind == "tuplespace":
        return [TupleSpace([entry("K", 1)])]
    if kind == "peats":
        return [PEATS(open_policy(), initial=[entry("K", 1)]).bind("p1")]
    space = make_space(kind)
    space.bind("p1").out(entry("K", 1))
    return [space, space.bind("p1")]


@pytest.mark.parametrize("kind", BACKENDS + ("peats", "tuplespace"))
def test_membership_keeps_true_and_one_apart(kind):
    for handle in _handles_holding_k1(kind):
        assert entry("K", 1) in handle
        assert entry("K", 1.0) in handle
        assert template("K", ANY) in handle
        assert entry("K", True) not in handle
        assert template("K", True) not in handle
        assert entry("K", 2) not in handle
        assert ("K", 1) not in handle


def test_local_membership_reads_the_index_without_a_snapshot(count_calls):
    space = make_space("local")
    space.bind("p1").out(entry("K", 1))
    view = PEATS(open_policy(), initial=[entry("K", 1)]).bind("p1")
    snapshots = count_calls(AugmentedTupleSpace, "snapshot")
    assert entry("K", 1) in space and entry("K", 1) in space.bind("p1")
    assert template("K", True) not in space.bind("p1")
    assert entry("K", 1) in view and template("K", True) not in view
    assert snapshots == []
