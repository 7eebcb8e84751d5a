"""Pin the published event stream of four armed serving scenarios.

The kernel goldens (``tests/golden/serving_traces.json``) only see the
timeline of unarmed servers.  These tests subscribe to the
:class:`~repro.obs.events.EventBus` of fully armed runs — admission control,
faults and recovery, observability, cluster failover — and digest the
ordered stream: event type, ``time_us``, ``batch_id``, ``rids``, ``where``
and, for ``BatchDispatched``, ``first``.  A refactor of the submission path
that reorders, drops or re-labels any published event changes a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import Cluster
from repro.faults.plan import FaultPlan, LaunchFailure, NodeCrash
from repro.faults.resilience import ReplicaRecoveryConfig, ResilienceConfig
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.obs import Observability
from repro.obs.events import BatchDispatched
from repro.serving import (
    ContinuousBatchingServer,
    LifecycleServer,
    Server,
    chat_workload,
    generation_workload,
)
from repro.serving.api import make_strategy
from repro.serving.overload import OverloadConfig
from repro.serving.workload import general_trace
from serving_goldens import reset_batch_ids

MODEL = OPT_30B.scaled_layers(2)
NODE = v100_nvlink_node(2)


class StreamDigest:
    """Bus subscriber folding each event's identity into one sha256."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.kinds: dict = {}
        self.redispatches = 0

    def __call__(self, event) -> None:
        name = type(event).__name__
        self.kinds[name] = self.kinds.get(name, 0) + 1
        fields = [
            name,
            repr(event.time_us),
            repr(getattr(event, "batch_id", None)),
            repr(tuple(getattr(event, "rids", ()))),
            repr(getattr(event, "where", None)),
        ]
        if isinstance(event, BatchDispatched):
            fields.append(repr(event.first))
            self.redispatches += not event.first
        self.hash.update(("|".join(fields) + "\n").encode())

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


def _observed():
    obs = Observability()
    digest = StreamDigest()
    obs.bus.subscribe(digest)
    return obs, digest


def _server():
    obs, digest = _observed()
    srv = Server(
        MODEL, NODE, make_strategy("liger", MODEL, NODE),
        check_memory=False,
        record_trace=False,
        fault_plan=FaultPlan([LaunchFailure(start=2_000.0, end=6_000.0)]),
        overload=OverloadConfig(
            max_pending_requests=4,
            policy="shed-oldest",
            default_deadline_us=40_000.0,
        ),
        observability=obs,
    )
    srv.run(general_trace(24, 2_000.0, 2, seed=0))
    return digest


def _continuous():
    obs, digest = _observed()
    srv = ContinuousBatchingServer(
        MODEL, NODE, make_strategy("liger", MODEL, NODE),
        max_batch=8, pipeline_depth=2, check_memory=False,
        fault_plan=FaultPlan([LaunchFailure(start=0.0, end=5_000.0)]),
        resilience=ResilienceConfig(max_retries=1, enable_fallback=False),
        observability=obs,
    )
    result = srv.run(generation_workload(6, 400.0, seed=1))
    # Retry exhaustion requeues the batch's jobs; they are re-dispatched.
    assert result.resilience.shed_batches
    return digest


def _lifecycle():
    obs, digest = _observed()
    srv = LifecycleServer(
        MODEL, NODE, make_strategy("liger", MODEL, NODE),
        prefill_batch=2, max_decode_batch=8, check_memory=False,
        observability=obs,
    )
    srv.run(chat_workload(6, 120.0, seed=0))
    return digest


def _cluster():
    obs, digest = _observed()
    cluster = Cluster(
        MODEL, NODE, replicas=2, strategy="intra", check_memory=False,
        fault_plan=FaultPlan([NodeCrash(start=8_000.0, end=500_000.0, node=1)]),
        recovery=ReplicaRecoveryConfig(health_check_period_us=1_000.0),
        observability=obs,
    )
    cluster.run(general_trace(16, 2_000.0, 2, seed=0))
    return digest


#: scenario → (runner, event kinds the stream must contain, digest).
SCENARIOS = {
    "server": (
        _server,
        {"RequestsShed", "RetryScheduled", "BatchDispatched"},
        "5af1ed4c12ff9208bd0372b0e5e1441ddd0b0b4e50a5c21f488df128c36757e4",
    ),
    "continuous": (
        _continuous,
        {"RetryScheduled", "BatchDispatched"},
        "38b1f1f21a0d49ca6d98401733612f17a126f5090c2d22ed9860cd6aba13e215",
    ),
    "lifecycle": (
        _lifecycle,
        {"RequestsAdmitted", "BatchDispatched", "BatchCompleted"},
        "fbb39991fc32338d6b9458fca17d3a2208a9088a8bc1fed4971bbe1f155f193d",
    ),
    "cluster": (
        _cluster,
        {"NodeCrashed", "RequestsFailedOver", "BatchDispatched"},
        "97715d3fc2bcb39d73ea165c592d749cee38c93e34a49fe3f32d8f5468254d8f",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_digest(name):
    runner, kinds, expected = SCENARIOS[name]
    reset_batch_ids()
    digest = runner()
    missing = kinds - set(digest.kinds)
    assert not missing, f"{name}: stream lacks {sorted(missing)}"
    if name == "continuous":
        assert digest.redispatches > 0, "no re-dispatch published first=False"
    assert digest.hexdigest() == expected, (
        f"{name}: published event stream changed ({digest.kinds})"
    )
