"""Bit-for-bit guard: the benchmark tasks must reproduce the output
digests recorded in perfbench/expected.json, the cheapest task of each
workload one by one and then every task of the pools.

The benchmark module is compiled from its source and nothing is written
under perfbench/ (no bytecode cache, no change to expected.json).
"""

import json
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

TASKS = (
    ("combo", 3, "1/2", "-2/3"),   # verify
    ("family5", "psi-1", "shuffle", 1, 4, "-1/2"),  # verify: Horner, relabel
    ("sigma", 5, "psi"),           # decompose
    ("chi_q4", 5),                 # decompose, with the Q4 counterterm
    ("ls", 2, 14, False),          # dims
)


def _workloads():
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _workloads()


@pytest.fixture(scope="module")
def expected():
    return json.loads((BENCH / "expected.json").read_text())["tasks"]


@pytest.mark.parametrize("task", TASKS, ids=lambda t: ":".join(map(str, t)))
def test_task_digest_matches_the_recording(workloads, expected, task):
    text, passed = workloads.run_task(task)
    assert passed
    assert workloads.digest(text) == expected[workloads.task_key(task)]


def test_every_recorded_digest(workloads, expected):
    # every task any seed can draw, so a change of output anywhere in the
    # pools fails here and not only in a benchmark run
    pool = [t for w in workloads.WORKLOADS for t in workloads.task_pool(w)]
    assert sorted(map(workloads.task_key, pool)) == sorted(expected)
    for task in pool:
        text, passed = workloads.run_task(task)
        assert passed, workloads.task_key(task)
        assert workloads.digest(text) == expected[workloads.task_key(task)], \
            workloads.task_key(task)
