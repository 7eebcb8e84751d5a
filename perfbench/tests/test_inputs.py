"""Seeded inputs and run determinism."""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
import workloads
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    make = WORKLOADS[name].make_inputs
    assert make(3) == make(3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_different_inputs(name):
    make = WORKLOADS[name].make_inputs
    a, b = make(3), make(4)
    assert a["arrivals"] != b["arrivals"]
    assert a != b


def test_chat_arrivals_hold_the_mean_rate():
    arrivals = WORKLOADS["chat_mixed"].make_inputs(5)["arrivals"]
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] <= workloads._CHAT_REQUESTS / workloads._CHAT_RATE * 1e6


def test_cluster_crash_spares_router_node():
    for seed in range(20):
        crash = WORKLOADS["cluster_failover"].make_inputs(seed)["crash"]
        assert crash["node"] != 0
        assert crash["start"] < crash["end"]


def _child(seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload",
         "decode_steady", "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_fingerprint_repeats_for_a_seed_and_moves_with_it():
    first, again, other = _child(3), _child(3), _child(4)
    assert first["fingerprint"] == again["fingerprint"]
    assert first["sim"] == again["sim"]
    assert first["fingerprint"] != other["fingerprint"]
    assert all(held for _, held, _ in first["checks"])
