"""The benchmark's three workloads: seeded inputs, build functions, outcomes.

Each workload is split into the phases the benchmark times separately:

* ``make_inputs(seed)`` — plain numbers drawn from the benchmark's own RNG
  (arrival instants, lengths, the fault window).  It imports nothing from
  the program, so the program only ever receives generated inputs.
* ``build(inputs, record_trace)`` — imports the library and constructs the
  server (strategy, profiler, contention profile, cluster); this is what
  ``setup_s`` times.  The program's request objects are created here too,
  but their CPU cost is excluded from ``setup_s`` by the caller.
* ``Built.run()`` — the one public ``run()`` call every host-time metric
  divides by.
* ``Built.outcomes()`` — one :class:`Outcome` per attempted request.

All three are open loop in simulated time: the whole arrival schedule is
handed to ``run()`` up front, so a stall makes later requests queue and
their latency is measured from the instant they were due.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Outcome", "Built", "WORKLOADS", "Workload"]


@dataclass(frozen=True)
class Outcome:
    """One attempted request, reduced to what the metrics need (µs)."""

    rid: int
    arrival: float
    state: str  # "completed" / "shed" / "timed_out" / "pending"
    first_token: Optional[float]
    completion: Optional[float]
    tokens: int


@dataclass
class Built:
    """A constructed workload, ready for its one ``run()`` call."""

    run: Callable[[], object]
    #: The engine driving the run (``now``, ``events_processed``).
    engine: object
    outcomes: Callable[[], List[Outcome]]
    #: Extra invariants checked after the run: ``(name, held, detail)``.
    invariants: Callable[[], List[tuple]] = lambda: []
    #: ``[(label, Trace)]`` of a ``record_trace=True`` build.
    traces: Callable[[], list] = lambda: []
    #: Batches the cluster router failed over (0 without a router).
    failovers: Callable[[], int] = lambda: 0
    #: CPU seconds spent turning the inputs into the program's request
    #: objects inside ``build`` (input generation, not set-up).
    input_cpu_s: float = 0.0


def _timed(make: Callable[[], list]) -> Tuple[list, float]:
    start = time.process_time()
    value = make()
    return value, time.process_time() - start


def _state(obj) -> str:
    return obj.state.value


# ----------------------------------------------------------------------
# decode_steady
# ----------------------------------------------------------------------
_DECODE_REQUESTS = 1440
_DECODE_RATE = 1200.0  # req/s, just under the 2-GPU node's decode service rate
_DECODE_JITTER = 0.2   # each arrival moves by up to ±20% of the gap


def decode_inputs(seed: int) -> dict:
    """Constant-rate single-token jobs; the seed jitters each arrival.

    The jitter is an offset around a fixed grid, so the long-run rate (and
    with it the throughput) is the same for every seed.
    """
    rng = random.Random(seed)
    gap = 1e6 / _DECODE_RATE
    arrivals = [
        (i + 1 + rng.uniform(-_DECODE_JITTER, _DECODE_JITTER)) * gap
        for i in range(_DECODE_REQUESTS)
    ]
    return {"arrivals": arrivals}


def decode_build(inputs: dict, record_trace: bool = False) -> Built:
    from repro.core import LigerConfig
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.api import make_strategy
    from repro.serving.generation import ContinuousBatchingServer, GenRequest

    model = OPT_30B.scaled_layers(4)
    node = v100_nvlink_node(2)
    strategy = make_strategy(
        "liger", model, node,
        config=LigerConfig(max_inflight=6, division_factor=16),
    )
    server = ContinuousBatchingServer(
        model, node, strategy, max_batch=8, pipeline_depth=2,
        record_trace=record_trace, check_memory=False,
    )
    jobs, input_cpu_s = _timed(lambda: [
        GenRequest(rid=i, arrival=t, context_len=16, gen_tokens=1)
        for i, t in enumerate(inputs["arrivals"])
    ])

    def outcomes() -> List[Outcome]:
        # A single-token job's first token is its only token.
        return [
            Outcome(j.rid, j.arrival, _state(j), j.completion, j.completion,
                    j.gen_tokens)
            for j in jobs
        ]

    return Built(
        run=lambda: server.run(jobs),
        engine=server.engine,
        outcomes=outcomes,
        traces=lambda: [("", server.trace)] if server.trace is not None else [],
        input_cpu_s=input_cpu_s,
    )


# ----------------------------------------------------------------------
# chat_mixed
# ----------------------------------------------------------------------
_CHAT_REQUESTS = 1000
_CHAT_RATE = 240.0  # chats/s; the 1-layer node saturates near 465
_CHAT_PROMPT = (16, 128)
_CHAT_GEN = (4, 16)


def chat_inputs(seed: int) -> dict:
    """Poisson chats conditioned on their count: uniform arrival instants.

    Conditioning on the count fixes the realised mean rate at exactly
    ``_CHAT_RATE``, so seeds vary the burst pattern, not the load.
    """
    rng = random.Random(seed)
    horizon = _CHAT_REQUESTS / _CHAT_RATE * 1e6
    arrivals = sorted(rng.uniform(0.0, horizon) for _ in range(_CHAT_REQUESTS))
    prompts = [rng.randint(*_CHAT_PROMPT) for _ in range(_CHAT_REQUESTS)]
    gens = [rng.randint(*_CHAT_GEN) for _ in range(_CHAT_REQUESTS)]
    return {"arrivals": arrivals, "prompts": prompts, "gens": gens}


def chat_build(inputs: dict, record_trace: bool = False) -> Built:
    from repro.hw import v100_nvlink_node
    from repro.models import GLM_130B
    from repro.serving.api import make_strategy
    from repro.serving.lifecycle import ChatRequest, LifecycleServer

    model = GLM_130B.scaled_layers(1)
    node = v100_nvlink_node(4)
    strategy = make_strategy("liger", model, node)
    server = LifecycleServer(
        model, node, strategy, prefill_batch=4, max_decode_batch=32,
        record_trace=record_trace, check_memory=False,
    )
    chats, input_cpu_s = _timed(lambda: [
        ChatRequest(rid=i, arrival=t, prompt_len=p, gen_tokens=g)
        for i, (t, p, g) in enumerate(
            zip(inputs["arrivals"], inputs["prompts"], inputs["gens"])
        )
    ])

    def outcomes() -> List[Outcome]:
        return [
            Outcome(c.rid, c.arrival, _state(c), c.prefill_done, c.completion,
                    c.gen_tokens)
            for c in chats
        ]

    return Built(
        run=lambda: server.run(chats),
        engine=server.engine,
        outcomes=outcomes,
        traces=lambda: [("", server.trace)] if server.trace is not None else [],
        input_cpu_s=input_cpu_s,
    )


# ----------------------------------------------------------------------
# cluster_failover
# ----------------------------------------------------------------------
_CLUSTER_REPLICAS = 4
_CLUSTER_REQUESTS = 1600
_CLUSTER_BATCH = 2
_CLUSTER_RATE = 200.0     # mean req/s over the bursty schedule
_CLUSTER_BURSTINESS = 4.0  # burst rate / lull rate
_CLUSTER_PHASE = 32       # requests per burst or lull phase
_CLUSTER_SEQ = (16, 128)


def cluster_inputs(seed: int) -> dict:
    """The §4.2 general trace with bursty arrivals and one crash window.

    Bursts and lulls alternate every ``_CLUSTER_PHASE`` requests; each gap
    is jittered by ±10%.  One replica other than node 0 (which hosts the
    router) crashes in the middle of a burst that starts between 30% and
    50% of the arrival horizon, and restarts 20% of the horizon later.
    Mid-burst the replicas hold work, so the crash usually catches a batch
    in flight and forces a failover (``faults.retries`` counts them).
    """
    rng = random.Random(seed)
    b = _CLUSTER_BURSTINESS
    burst = _CLUSTER_RATE * (b + 1.0) / 2.0
    lull = _CLUSTER_RATE * (b + 1.0) / (2.0 * b)
    arrivals: List[float] = []
    t = 0.0
    for i in range(_CLUSTER_REQUESTS):
        rate = burst if (i // _CLUSTER_PHASE) % 2 == 0 else lull
        t += 1e6 / rate * rng.uniform(0.9, 1.1)
        arrivals.append(t)
    seqs = [rng.randint(*_CLUSTER_SEQ) for _ in range(_CLUSTER_REQUESTS)]
    horizon = arrivals[-1]
    bursts = [
        i for i in range(0, _CLUSTER_REQUESTS, 2 * _CLUSTER_PHASE)
        if 0.3 * horizon <= arrivals[i] <= 0.5 * horizon
    ]
    start = arrivals[rng.choice(bursts) + _CLUSTER_PHASE // 2]
    crash = {
        "node": rng.randrange(1, _CLUSTER_REPLICAS),
        "start": start,
        "end": start + 0.2 * horizon,
    }
    return {"arrivals": arrivals, "seqs": seqs, "crash": crash}


def cluster_build(inputs: dict, record_trace: bool = False) -> Built:
    from repro.cluster import Cluster
    from repro.faults.plan import FaultPlan, NodeCrash
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.obs import Observability, ObservabilityConfig
    from repro.obs.slo import SloPolicy
    from repro.serving.request import Batch, Phase, Request

    crash = inputs["crash"]
    plan = FaultPlan([NodeCrash(start=crash["start"], end=crash["end"],
                                node=crash["node"])])
    obs = Observability(
        ObservabilityConfig(
            telemetry=True,
            window_us=20_000.0,
            slo_policies=(
                SloPolicy("availability", target=0.95),
                SloPolicy("latency-p99", objective="latency", target=0.99,
                          latency_threshold_ms=100.0),
            ),
        )
    )
    cluster = Cluster(
        OPT_30B.scaled_layers(8), v100_nvlink_node(2),
        replicas=_CLUSTER_REPLICAS, fault_plan=plan,
        record_trace=record_trace, check_memory=False,
        observability=obs, seed=0,
    )
    requests, req_cpu_s = _timed(lambda: [
        Request(rid=i, arrival=t, seq_len=s, phase=Phase.PREFILL)
        for i, (t, s) in enumerate(zip(inputs["arrivals"], inputs["seqs"]))
    ])
    batches, batch_cpu_s = _timed(lambda: [
        Batch(requests=requests[i : i + _CLUSTER_BATCH])
        for i in range(0, len(requests), _CLUSTER_BATCH)
    ])
    holder: Dict[str, object] = {}

    def run():
        holder["result"] = result = cluster.run(batches)
        return result

    def outcomes() -> List[Outcome]:
        # A prefill request's one output token is ready at completion.
        return [
            Outcome(r.rid, r.arrival, _state(r), r.completion, r.completion, 1)
            for r in requests
        ]

    def invariants() -> List[tuple]:
        res = holder["result"]
        return [
            ("exactly-once",
             res.router_completed_requests == res.completed_requests,
             f"router accepted {res.router_completed_requests} completions for "
             f"{res.completed_requests} completed requests"),
            ("no-unhealthy-dispatch", res.unhealthy_dispatches == 0,
             f"{res.unhealthy_dispatches} dispatches to unhealthy nodes"),
        ]

    return Built(
        run=run,
        engine=cluster.engine,
        outcomes=outcomes,
        invariants=invariants,
        traces=lambda: list(holder["result"].traces),
        failovers=lambda: holder["result"].resilience.failovers,
        input_cpu_s=req_cpu_s + batch_cpu_s,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    build: Callable[..., Built]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("decode_steady", decode_inputs, decode_build),
        Workload("chat_mixed", chat_inputs, chat_build),
        Workload("cluster_failover", cluster_inputs, cluster_build),
    )
}
