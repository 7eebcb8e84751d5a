"""Admission conformance: one hand-built overflow, every server, every policy.

The four servers bound their admission queues at different granularities —
:class:`~repro.serving.server.Server` queues pre-packed batches,
:class:`~repro.serving.generation.StaticBatchingServer` queues whole static
groups, and the continuous and lifecycle servers queue single jobs — but
they share one admission vocabulary (:class:`~repro.serving.overload.
AdmissionPolicy`).  Each scenario here drives the same overflow through all
four and pins the exact outcome: which requests were shed or timed out, the
terminal state of every request, and the :class:`~repro.serving.overload.
OverloadReport`.

The overflow is built so admission alone decides it.  Six *entries*
arrive within a few µs, long before the first one finishes.  An entry is
one request, except on the static server, where it is a group of two.
Entry 0 starts at once; the others wait in the queue, which holds two
entries.  The static and lifecycle servers queue only while their KV
memory is full, so their HBM is squeezed to fit one entry at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import pytest

from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.serving import (
    Batch,
    ChatRequest,
    ContinuousBatchingServer,
    GenRequest,
    LifecycleServer,
    OverloadConfig,
    OverloadReport,
    Phase,
    Request,
    RequestState,
    Server,
    StaticBatchingServer,
)
from repro.serving.api import make_strategy
from repro.sim.memory import activation_bytes

MODEL = OPT_30B.scaled_layers(2)
NODE = v100_nvlink_node(4)
TP = NODE.num_gpus
ENTRIES = 6
PROMPT = 16
GEN = 2

SERVERS = ("server", "static", "continuous", "lifecycle")


def _entry_size(kind: str) -> int:
    return 2 if kind == "static" else 1


def _rids(kind: str, entries) -> set:
    size = _entry_size(kind)
    return {size * e + i for e in entries for i in range(size)}


def _deadline(entry_deadlines, rid: int, kind: str) -> Optional[float]:
    """Per-request deadline; a static group's second member is 1 µs looser,
    so the group's deadline is its first member's."""
    size = _entry_size(kind)
    base = entry_deadlines[rid // size]
    if base is None:
        return None
    return base + float(rid % size)


def _squeeze(memory, per_entry: float) -> None:
    """Leave room for one entry's KV reservation at a time."""
    memory.reserve("squeeze", memory.min_available() - 1.5 * per_entry)


def _serve(
    kind: str,
    policy: str,
    entry_deadlines: Sequence[Optional[float]],
    *,
    max_pending: int,
    default_deadline_us: Optional[float] = None,
):
    """Run one scenario; returns ({rid: request}, OverloadReport)."""
    size = _entry_size(kind)
    cfg = OverloadConfig(
        max_pending_requests=max_pending * size,
        policy=policy,
        default_deadline_us=default_deadline_us,
        max_inflight_batches=1,
        max_staged_batches=0,
        enable_kv_accounting=False,
        breaker_enabled=False,
    )
    strategy = make_strategy("intra", MODEL, NODE)
    n = ENTRIES * size
    arrivals = [float(rid) for rid in range(n)]
    deadlines = [_deadline(entry_deadlines, rid, kind) for rid in range(n)]
    if kind == "server":
        batches = [
            Batch([
                Request(rid=rid, arrival=arrivals[rid], seq_len=PROMPT,
                        phase=Phase.PREFILL, deadline=deadlines[rid])
            ])
            for rid in range(n)
        ]
        srv = Server(MODEL, NODE, strategy, record_trace=False,
                     check_memory=False, overload=cfg)
        result = srv.run(batches)
        return {b.requests[0].rid: b.requests[0] for b in batches}, result.overload
    if kind == "lifecycle":
        jobs: List = [
            ChatRequest(rid=rid, arrival=arrivals[rid], prompt_len=PROMPT,
                        gen_tokens=GEN, deadline=deadlines[rid])
            for rid in range(n)
        ]
        srv = LifecycleServer(MODEL, NODE, strategy, prefill_batch=1,
                              check_memory=False, overload=cfg)
        _squeeze(srv.memory, MODEL.kv_cache_bytes(1, PROMPT + GEN, tp=TP)
                 + activation_bytes(MODEL, 1, 1, TP))
    else:
        jobs = [
            GenRequest(rid=rid, arrival=arrivals[rid], context_len=PROMPT,
                       gen_tokens=GEN, deadline=deadlines[rid])
            for rid in range(n)
        ]
        if kind == "static":
            srv = StaticBatchingServer(MODEL, NODE, strategy, batch_size=size,
                                       check_memory=False, overload=cfg)
            _squeeze(srv.memory, MODEL.kv_cache_bytes(size, PROMPT + GEN, tp=TP)
                     + activation_bytes(MODEL, size, 1, TP))
        else:
            srv = ContinuousBatchingServer(MODEL, NODE, strategy, max_batch=1,
                                           pipeline_depth=1, check_memory=False,
                                           overload=cfg)
    result = srv.run(jobs)
    return {j.rid: j for j in jobs}, result.overload


def _states(jobs: Dict[int, object]) -> Dict[int, RequestState]:
    return {rid: job.state for rid, job in jobs.items()}


def _expected_states(kind: str, shed=(), timed_out=()) -> Dict[int, RequestState]:
    out = {rid: RequestState.COMPLETED for rid in _rids(kind, range(ENTRIES))}
    out.update({rid: RequestState.SHED for rid in _rids(kind, shed)})
    out.update({rid: RequestState.TIMED_OUT for rid in _rids(kind, timed_out)})
    return out


def _report(kind: str, policy: str, *, admitted: int, shed: int = 0,
            timed_out: int = 0, peak: int) -> OverloadReport:
    size = _entry_size(kind)
    return OverloadReport(
        policy=policy,
        admitted_requests=admitted * size,
        shed_requests=shed * size,
        timed_out_requests=timed_out * size,
        peak_pending_requests=peak * size,
    )


#: Loose, distinct deadlines (µs) — nothing expires; they only rank victims.
LOOSE = (8e6, 6e6, 9e6, 7e6, 5e6, 9.5e6)

#: (policy, entry deadlines, shed entries, admitted entries).  Entry 0 runs
#: at once and entries 1 and 2 fill the queue, so entries 3, 4 and 5 each
#: overflow it.
POLICY_CASES = {
    # The arrival is refused: the queue keeps 1 and 2.
    "reject": ("reject", LOOSE, {3, 4, 5}, 3),
    # Each arrival evicts the queue head: 1, then 2, then 3.
    "shed-oldest": ("shed-oldest", LOOSE, {1, 2, 3}, 6),
    # Each arrival evicts the tightest queued deadline: 1 (6e6) from
    # [1, 2], 3 (7e6) from [2, 3], 4 (5e6) from [2, 4].
    "shed-by-deadline": ("shed-by-deadline", LOOSE, {1, 3, 4}, 6),
    # Only deadline-carrying entries are victims: 3 evicts 2 from [1, 2];
    # 4 and 5 then find no victim in [1, 3] and are refused themselves.
    "shed-by-deadline/mixed": (
        "shed-by-deadline", (None, None, 5e6, None, 7e6, None), {2, 4, 5}, 4,
    ),
    # Nothing queued carries a deadline: the policy degrades to reject.
    "shed-by-deadline/none": (
        "shed-by-deadline", (None,) * ENTRIES, {3, 4, 5}, 3,
    ),
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
@pytest.mark.parametrize("kind", SERVERS)
def test_policy_sheds_the_same_entries(kind, case):
    policy, deadlines, shed, admitted = POLICY_CASES[case]
    jobs, report = _serve(kind, policy, deadlines, max_pending=2)
    assert _states(jobs) == _expected_states(kind, shed=shed)
    assert report == _report(kind, policy, admitted=admitted,
                             shed=len(shed), peak=2)


@pytest.mark.parametrize("kind", SERVERS)
def test_default_deadline_stamped_only_where_missing(kind):
    default = 1e7
    explicit = (None, 5e6, None, None, 5e6, None)
    jobs, report = _serve(kind, "reject", explicit, max_pending=8,
                          default_deadline_us=default)
    for rid, job in jobs.items():
        own = _deadline(explicit, rid, kind)
        want = own if own is not None else job.arrival + default
        assert job.deadline == want, rid
    assert _states(jobs) == _expected_states(kind)
    assert report == _report(kind, "reject", admitted=ENTRIES, peak=ENTRIES - 1)


@pytest.mark.parametrize("kind", SERVERS)
def test_queued_deadline_expires_before_launch(kind):
    # Entries 2 and 3 expire 10 µs after arriving, while entry 0 (and, on
    # the serial servers, entry 1) still holds the node: they time out in
    # the queue without launching a kernel.  Nothing is shed.
    tight = (None, None, 12.0, 13.0, None, None)
    jobs, report = _serve(kind, "reject", tight, max_pending=8)
    assert _states(jobs) == _expected_states(kind, timed_out={2, 3})
    assert report == _report(kind, "reject", admitted=ENTRIES, timed_out=2,
                             peak=ENTRIES - 1)
