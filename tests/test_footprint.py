"""Footprint guard: serving runs import neither numpy nor networkx.

Both packages cost every process tens of MB of RSS and a large share of its
start-up CPU, and the serving path needs neither: topologies route over a
plain link table and latency summaries are pure Python.  This guard runs
the three serving tiers in a fresh interpreter in which importing either
package raises, so an import that creeps back onto the path fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["networkx"] = sys.modules["numpy"] = None  # any import raises

    import repro
    from repro.cluster import Cluster
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.api import make_strategy
    from repro.serving.generation import ContinuousBatchingServer, GenRequest
    from repro.serving.lifecycle import ChatRequest, LifecycleServer
    from repro.serving.request import Batch, Phase, Request

    model = OPT_30B.scaled_layers(2)
    node = v100_nvlink_node(2)

    jobs = [GenRequest(rid=i, arrival=i * 500.0, context_len=16, gen_tokens=2)
            for i in range(8)]
    server = ContinuousBatchingServer(
        model, node, make_strategy("liger", model, node), max_batch=4,
        check_memory=False)
    result = server.run(jobs)
    assert all(j.completion is not None for j in jobs)
    print("continuous", result.latency_stats().count)

    chats = [ChatRequest(rid=i, arrival=i * 1000.0, prompt_len=32, gen_tokens=3)
             for i in range(6)]
    server = LifecycleServer(
        model, node, make_strategy("liger", model, node), check_memory=False)
    result = server.run(chats)
    assert all(c.completion is not None for c in chats)
    print("lifecycle", result.latency.count)

    requests = [Request(rid=i, arrival=i * 2000.0, seq_len=32,
                        phase=Phase.PREFILL) for i in range(8)]
    batches = [Batch(requests=requests[i:i + 2]) for i in range(0, 8, 2)]
    result = Cluster(model, node, replicas=2, check_memory=False).run(batches)
    assert result.completed_requests == 8
    print("cluster", result.completed_requests)

    assert sys.modules["numpy"] is None and sys.modules["networkx"] is None
    """
)


def test_serving_tiers_run_without_numpy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "continuous", "8", "lifecycle", "6", "cluster", "8",
    ]
