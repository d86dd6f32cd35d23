"""Tests for the exception hierarchy and the top-level package API."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError), name

    def test_specific_parentage(self):
        assert issubclass(errors.MalformedTupleError, errors.TupleError)
        assert issubclass(errors.AccessDeniedError, errors.PolicyError)
        assert issubclass(errors.PolicyEvaluationError, errors.PolicyError)
        assert issubclass(errors.TerminationError, errors.ConsensusError)
        assert issubclass(errors.ResilienceError, errors.ConsensusError)
        assert issubclass(errors.AuthenticationError, errors.ReplicationError)
        assert issubclass(errors.QuorumError, errors.ReplicationError)

    def test_access_denied_error_carries_context(self):
        error = errors.AccessDeniedError("nope", process="p1", operation="cas")
        assert error.process == "p1"
        assert error.operation == "cas"
        assert "nope" in str(error)

    def test_catching_repro_error_catches_library_failures(self):
        from repro.consensus import StrongConsensus

        with pytest.raises(errors.ReproError):
            StrongConsensus(range(2), 1)  # resilience violation


class TestPublicAPI:
    def test_all_exports_resolve(self):
        import repro.net
        import repro.tspace

        for package in (repro, repro.net, repro.tspace):
            for name in package.__all__:
                assert hasattr(package, name), (
                    f"{package.__name__}.__all__ exports missing name {name}"
                )

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_key_classes_are_reachable_from_the_root(self):
        assert repro.PEATS is not None
        assert repro.WeakConsensus is not None
        assert repro.StrongConsensus is not None
        assert repro.DefaultConsensus is not None
        assert repro.LockFreeUniversalConstruction is not None
        assert repro.WaitFreeUniversalConstruction is not None
        assert repro.ReplicatedPEATS is not None

    def test_coordination_package_is_importable(self):
        from repro.coordination import Barrier, DistributedLock, LeaderElection

        assert Barrier and DistributedLock and LeaderElection
