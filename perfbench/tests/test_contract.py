"""Tests that the benchmark's output matches BENCHMARK.json."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import END_TO_END
from spans import metric_units
from workloads import WORKLOADS, get_workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_names_are_well_formed_and_declared():
    emitted = {**END_TO_END, **metric_units()}
    assert all(NAME.fullmatch(name) for name in emitted)
    assert _names("end_to_end") == END_TO_END
    assert _names("per_layer") == metric_units()


def test_declared_workloads_exist_with_their_reason():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared
    assert all(WORKLOADS[name].why == why for name, why in declared.items())


def _input_bytes(name, seed):
    chunks = []
    for item in get_workload(name, seed).make_inputs():
        for array in (item if isinstance(item, tuple) else (item,)):
            chunks.append(array.tobytes())
    return b"".join(chunks)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    assert _input_bytes(name, 5) == _input_bytes(name, 5)
    assert _input_bytes(name, 5) != _input_bytes(name, 6)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


def test_traced_run_prints_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "serve-tiles", "--seed", "3",
                "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _names("per_layer")


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "train-direct", "--seed", "3",
                "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train-fft", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
