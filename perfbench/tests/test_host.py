"""Tests of the host readings: speedometer, runnable threads, steadiness."""

import subprocess
import sys
import time

import pytest

import host
from speedometer import NOMINAL_S, Speedometer
from steady import compare, pairs_won


def test_factor_averages_each_cpu_then_over_the_cpus():
    speed = Speedometer(cpus=[0, 1])
    first, second = speed.probes
    first.starts = [0.0, 1.0, 2.0, 3.0]
    first.cpu = [NOMINAL_S, 2 * NOMINAL_S, 3 * NOMINAL_S, 4 * NOMINAL_S]
    second.starts = [0.5]
    second.cpu = [NOMINAL_S]
    assert first.mean([(0.5, 2.5)]) == pytest.approx(2.5 * NOMINAL_S)
    assert first.mean([(0.0, 1.0), (3.0, 9.0)]) == pytest.approx(
        2.5 * NOMINAL_S)
    # No run started inside: the one nearest to the interval's start.
    assert first.mean([(1.2, 1.4)]) == pytest.approx(3 * NOMINAL_S)
    assert first.mean([(7.0, 8.0)]) == pytest.approx(4 * NOMINAL_S)
    assert speed.factor([(0.5, 2.5)]) == pytest.approx((2.5 + 1.0) / 2)


def test_speedometer_samples_every_cpu_and_counts_its_own_cpu():
    with Speedometer() as speed:
        time.sleep(0.4)
        own = speed.own_cpu_s()
        end = time.perf_counter()
        assert len(speed.probes) == host.nproc()
        assert all(len(probe.cpu) >= 3 for probe in speed.probes)
        assert 0.0 < own < 0.4
        assert speed.factor([(end - 0.3, end)]) > 0.0
        assert len(speed.native_ids) == len(speed.probes)
    assert not any(probe.thread.is_alive() for probe in speed.probes)


def test_runnable_threads_sees_a_busy_process_and_not_an_idle_one():
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    idle = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(30)"])
    try:
        time.sleep(0.3)
        assert max(host.runnable_threads([busy.pid], set())
                   for _ in range(5)) == 1
        assert host.runnable_threads([idle.pid], set()) == 0
    finally:
        for proc in (busy, idle):
            proc.kill()
            proc.wait()


def test_thread_plan_counts_clients_apart_from_workers():
    plan = host.thread_plan(engine_workers=host.nproc(), clients=1)
    assert plan["fits"]
    assert not host.thread_plan(host.nproc() + 1, 1)["fits"]
    assert not host.thread_plan(1, host.nproc() + 1)["fits"]


def _summary(median, spread=0.02):
    return {"median": median, "spread": spread}


def test_same_code_drift_fails_in_either_direction():
    assert compare(_summary(1.0), _summary(1.3), 0.25, "lower",
                   True)[1] == "FAIL"
    assert compare(_summary(1.0), _summary(0.7), 0.25, "lower",
                   True)[1] == "FAIL"
    assert compare(_summary(1.0), _summary(1.1), 0.25, "lower",
                   True)[1] == "ok"


def test_checkout_comparison_calls_changes_inside_the_spread_unresolved():
    assert compare(_summary(1.0, 0.05), _summary(1.03), 0.25, "lower",
                   False)[1] == "unresolved"
    assert compare(_summary(1.0), _summary(0.8), 0.25, "lower",
                   False)[1] == "better"
    assert compare(_summary(1.0), _summary(0.8), 0.25, "higher",
                   False)[1] == "worse"


def test_pairs_won_counts_strict_wins_in_the_better_direction():
    def runs(*values):
        return [{"metrics": {"m": {"value": v}}} for v in values]

    first, other = runs(1.0, 1.0, 1.0), runs(0.9, 1.0, 1.1)
    assert pairs_won(first, other, "m", "lower") == 1
    assert pairs_won(first, other, "m", "higher") == 1
    assert pairs_won(first, runs(0.5, 0.5, 0.5), "m", "lower") == 3
