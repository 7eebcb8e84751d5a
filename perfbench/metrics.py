"""Simulated-time metrics, output checks and the outcome fingerprint.

Everything here is a pure function of the program's outputs, so it is the
same in every run of one seed and testable without running the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Outcome

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "check_outcomes",
    "simulated_metrics",
    "tpot_p50_ms",
    "fingerprint",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile, refusing thin tails.

    The value at rank ``ceil(p/100 * n)`` of the sorted sample.  Raises
    ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie beyond
    that rank (p99 needs 1000 samples, p90 needs 100), so a tail figure is
    never read off one or two outliers.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def check_outcomes(outcomes: Sequence[Outcome]) -> List[Tuple[str, bool, str]]:
    """The output checks every workload must pass: ``(name, held, detail)``."""
    states: Dict[str, int] = {}
    for o in outcomes:
        states[o.state] = states.get(o.state, 0) + 1
    terminal = sum(states.get(s, 0) for s in ("completed", "shed", "timed_out"))
    done = [o for o in outcomes if o.state == "completed"]
    bad_order = [
        o.rid for o in done
        if o.completion is None or o.first_token is None
        or not o.arrival <= o.first_token <= o.completion
    ]
    rids = [o.rid for o in outcomes]
    return [
        ("all-terminal", terminal == len(outcomes),
         f"completed+shed+timed_out={terminal} of {len(outcomes)} attempted "
         f"({states})"),
        ("unique-rids", len(set(rids)) == len(rids),
         f"{len(rids) - len(set(rids))} duplicate request ids"),
        ("arrival<=first_token<=completion", not bad_order,
         f"{len(bad_order)} violations, first rids {bad_order[:5]}"),
    ]


def simulated_metrics(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Simulated-time end-to-end metrics over the completed requests.

    A request that did not complete counts in ``completed_frac`` and is
    missing from every latency figure.  Latencies are measured from the
    instant the request was due, so queueing behind a stall counts.
    """
    done = [o for o in outcomes if o.state == "completed"]
    if not done:
        raise ValueError("no request completed")
    latency = [(o.completion - o.arrival) / 1e3 for o in done]
    ttft = [(o.first_token - o.arrival) / 1e3 for o in done]
    span_s = (max(o.completion for o in done)
              - min(o.arrival for o in outcomes)) / 1e6
    return {
        "sim_latency_p50_ms": percentile(latency, 50),
        "sim_latency_p99_ms": percentile(latency, 99),
        "sim_ttft_p50_ms": percentile(ttft, 50),
        "sim_ttft_p90_ms": percentile(ttft, 90),
        "sim_throughput_rps": len(done) / span_s,
        "sim_tokens_per_s": sum(o.tokens for o in done) / span_s,
        "completed_frac": len(done) / len(outcomes),
    }


def tpot_p50_ms(outcomes: Sequence[Outcome]) -> Optional[float]:
    """Median time per output token after the first, over multi-token
    requests; ``None`` when no completed request has more than one token."""
    gaps = [
        (o.completion - o.first_token) / (o.tokens - 1) / 1e3
        for o in outcomes
        if o.state == "completed" and o.tokens > 1
    ]
    return percentile(gaps, 50) if gaps else None


def fingerprint(outcomes: Sequence[Outcome], end_us: float, events: int) -> str:
    """sha256 over every request's ``(rid, arrival, completion)``, the
    engine's final instant and its event count (floats by ``repr``)."""
    rows = sorted((o.rid, repr(o.arrival), repr(o.completion)) for o in outcomes)
    blob = json.dumps(
        {"requests": rows, "end_us": repr(end_us), "events": events},
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()
