"""Shared fixtures and hypothesis settings for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One-core container: keep property-based runs small and un-timed.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng():
    """Deterministic per-test RNG."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session", autouse=True)
def _repro_check_clean():
    """The REPRO_CHECK=1 CI lane's zero-violation assertion.

    When the suite runs with dynamic concurrency checking enabled, any
    lock-order / race violation recorded against the *environment*
    checking state fails the session at teardown.  Tests that provoke
    violations deliberately run against throwaway states (see
    ``tests/analysis/``) and never land here.
    """
    yield
    from repro.analysis.runtime import assert_clean, checking_enabled

    if checking_enabled():
        assert_clean()


@pytest.fixture
def task_tracer():
    """A fresh enabled tracer installed as the process global for one
    test, so the engines record their task spans into it; the previous
    tracer is restored afterwards."""
    from repro.observability.tracing import Tracer, set_tracer

    fresh = Tracer(enabled=True, process="test")
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)
