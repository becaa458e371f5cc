"""Regression tests for the concurrency bugs the checkers surfaced.

Each test constructs the fixed component with a throwaway checking
state active, so its locks are non-reentrant ``CheckedLock`` instances
and its tracked objects feed the race detector — the original bugs
would re-report here before they deadlocked or corrupted anything.
"""

import threading

import numpy as np
import pytest

from repro.analysis import runtime
from repro.scheduler import TaskEngine
from repro.sync import ConcurrentSum
from repro.tensor.fft_cache import TransformCache


@pytest.fixture
def check_state(monkeypatch):
    state = runtime._CheckState()
    monkeypatch.setattr(runtime, "_state", state)
    return state


def test_summation_overflow_raises_outside_critical_section(check_state):
    # Bug: the over-contribution RuntimeError was raised inside the
    # Algorithm-4 swap-only critical section (string formatting and
    # exception allocation under the contended lock).
    s = ConcurrentSum(required=2)
    assert s.add(np.ones(4)) is False
    assert s.add(np.ones(4)) is True
    with pytest.raises(RuntimeError, match="more than required"):
        s.add(np.ones(4))
    assert [v.kind for v in check_state.violations] == []


def test_summation_threads_stay_clean_under_checker(check_state):
    s = ConcurrentSum(required=8)
    done = []

    def contribute():
        done.append(s.add(np.full(16, 1.0)))

    threads = [threading.Thread(target=contribute) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert done.count(True) == 1
    np.testing.assert_allclose(s.get(), np.full(16, 8.0))
    assert [v.kind for v in check_state.violations] == []


def test_fft_cache_concurrent_pins_are_not_lost(check_state):
    # Bug: pin_kind rebound the _pinned_kinds frozenset outside the
    # cache lock — concurrent pins could lose updates (and the race
    # detector flagged the unlocked write to the tracked cache).
    cache = TransformCache(enabled=True)
    kinds = [f"kind-{i}" for i in range(8)]
    barrier = threading.Barrier(len(kinds), timeout=10)

    def pin(kind):
        barrier.wait()
        cache.pin_kind(kind)

    threads = [threading.Thread(target=pin, args=(k,)) for k in kinds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert cache.pinned_kinds == frozenset(kinds)
    assert [v.kind for v in check_state.violations] == []


def test_engine_family_counter_first_use_is_synchronised(check_state):
    # Bug: the per-family counter cache was filled without a lock —
    # concurrent first-use of families raced the dict insertion.  The
    # double-checked path (EngineCounters.family, shared by both
    # engines) must hand every thread the same counter.
    engine = TaskEngine(num_workers=1)
    engine_counters = engine._counters
    barrier = threading.Barrier(8, timeout=10)
    seen = []
    seen_lock = threading.Lock()

    def first_use():
        barrier.wait()
        mine = [engine_counters.family("engine.tasks", f"fam-{j}")
                for j in range(4)]
        mine.append(engine_counters.family("engine.tasks.retried",
                                           "fam-retry"))
        with seen_lock:
            seen.append(mine)

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(seen) == 8
    for counters in seen[1:]:
        for mine, first in zip(counters, seen[0]):
            assert mine is first
    assert set(engine_counters._per_family["engine.tasks"]) == {
        f"fam-{j}" for j in range(4)}
    assert set(engine_counters._per_family["engine.tasks.retried"]) == {
        "fam-retry"}
    assert [v.kind for v in check_state.violations] == []
