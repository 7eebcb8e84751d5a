"""Overload layer: admission control, deadlines, KV pressure, backpressure.

Covers the :mod:`repro.serving.overload` pipeline directly (controller-level
tests drive an :class:`~repro.sim.engine.Engine` by hand) and end-to-end
through :class:`~repro.serving.server.Server` and
:class:`~repro.serving.lifecycle.LifecycleServer`.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.faults.resilience import ResilienceConfig
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.serving import (
    AdmissionPolicy,
    Batch,
    BurstyProcess,
    KVCacheAccountant,
    OverloadConfig,
    OverloadController,
    Phase,
    Request,
    RequestState,
    Server,
    ServingMetrics,
    chat_workload,
    LifecycleServer,
)
from repro.serving.api import make_strategy
from repro.serving.overload import admission_victims
from repro.serving.workload import general_trace, generative_trace
from repro.sim.engine import Engine

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)


def _batch(rid0, arrival, *, size=1, seq=8, phase=Phase.PREFILL,
           context=0, deadline=None):
    reqs = [
        Request(rid=rid0 + i, arrival=arrival, seq_len=seq, phase=phase,
                context_len=context, deadline=deadline)
        for i in range(size)
    ]
    return Batch(reqs)


def _controller(config, downstream=None, metrics=None):
    engine = Engine()
    metrics = metrics if metrics is not None else ServingMetrics()
    sunk = []
    ctl = OverloadController(
        config, MODEL, NODE, engine, metrics,
        downstream if downstream is not None else sunk.append,
    )
    return ctl, sunk, engine, metrics


class TestConfig:
    def test_policy_coercion_from_string(self):
        cfg = OverloadConfig(policy="shed-oldest")
        assert cfg.policy is AdmissionPolicy.SHED_OLDEST

    def test_validation(self):
        with pytest.raises(ConfigError):
            OverloadConfig(max_pending_requests=0)
        with pytest.raises(ConfigError):
            OverloadConfig(default_deadline_us=0.0)
        with pytest.raises(ConfigError):
            OverloadConfig(kv_capacity_frac=1.5)
        with pytest.raises(ConfigError):
            OverloadConfig(breaker_high_frac=0.2, breaker_low_frac=0.5)
        with pytest.raises(ConfigError):
            OverloadConfig(policy="drop-table")


class TestAdmissionPolicies:
    CFG = dict(
        max_pending_requests=2,
        max_inflight_batches=1,
        max_staged_batches=0,
        enable_kv_accounting=False,
        breaker_enabled=False,
    )

    def test_reject_sheds_the_arrival(self):
        cfg = OverloadConfig(policy="reject", **self.CFG)
        ctl, sunk, _, metrics = _controller(cfg)
        batches = [_batch(i, float(i)) for i in range(5)]
        for b in batches:
            ctl.on_arrival(b)
        # One dispatched, two queued, the last two rejected.
        assert len(sunk) == 1
        assert ctl.queue_depth == 2
        assert metrics.shed_requests == 2
        assert [r.state for r in batches[3].requests] == [RequestState.SHED]
        assert [r.state for r in batches[4].requests] == [RequestState.SHED]

    def test_shed_oldest_keeps_the_newest(self):
        cfg = OverloadConfig(policy="shed-oldest", **self.CFG)
        ctl, sunk, _, metrics = _controller(cfg)
        batches = [_batch(i, float(i)) for i in range(5)]
        for b in batches:
            ctl.on_arrival(b)
        assert len(sunk) == 1
        # Queue holds the two *newest* arrivals; the oldest queued were shed.
        queued = [b.batch_id for b in ctl._pending]
        assert queued == [batches[3].batch_id, batches[4].batch_id]
        assert metrics.shed_requests == 2
        assert batches[1].requests[0].state is RequestState.SHED
        assert batches[2].requests[0].state is RequestState.SHED

    def test_shed_by_deadline_drops_tightest_slo(self):
        cfg = OverloadConfig(policy="shed-by-deadline", **self.CFG)
        ctl, sunk, _, metrics = _controller(cfg)
        ctl.on_arrival(_batch(0, 0.0))  # dispatched
        tight = _batch(1, 0.0, deadline=50.0)
        loose = _batch(2, 0.0, deadline=5000.0)
        ctl.on_arrival(tight)
        ctl.on_arrival(loose)
        newcomer = _batch(3, 0.0, deadline=1000.0)
        ctl.on_arrival(newcomer)
        # The tightest-deadline queued batch was sacrificed for the newcomer.
        assert tight.requests[0].state is RequestState.SHED
        queued = [b.batch_id for b in ctl._pending]
        assert queued == [loose.batch_id, newcomer.batch_id]
        assert metrics.shed_requests == 1

    def test_shed_by_deadline_falls_back_to_reject(self):
        cfg = OverloadConfig(policy="shed-by-deadline", **self.CFG)
        ctl, sunk, _, _ = _controller(cfg)
        for i in range(3):  # no deadlines anywhere: nothing to sacrifice
            ctl.on_arrival(_batch(i, float(i)))
        extra = _batch(9, 9.0)
        ctl.on_arrival(extra)
        assert extra.requests[0].state is RequestState.SHED
        assert ctl.queue_depth == 2

    def test_queue_is_always_bounded(self):
        for policy in AdmissionPolicy:
            cfg = OverloadConfig(policy=policy, **self.CFG)
            ctl, _, _, _ = _controller(cfg)
            for i in range(20):
                ctl.on_arrival(_batch(i, float(i), deadline=1e9))
                assert ctl.queue_depth <= cfg.max_pending_requests


class TestOversizeArrival:
    """An arrival larger than ``max_pending_requests`` is shed alone."""

    @pytest.mark.parametrize("policy", [p.value for p in AdmissionPolicy])
    def test_controller_keeps_the_queue(self, policy):
        cfg = OverloadConfig(policy=policy, **TestAdmissionPolicies.CFG)
        ctl, sunk, _, metrics = _controller(cfg)
        ctl.on_arrival(_batch(0, 0.0))  # dispatched
        queued = [_batch(1, 1.0, deadline=1e6), _batch(2, 2.0, deadline=2e6)]
        for b in queued:
            ctl.on_arrival(b)
        giant = _batch(3, 3.0, size=3, deadline=3e6)
        ctl.on_arrival(giant)
        assert [r.state for r in giant.requests] == [RequestState.SHED] * 3
        assert [b.batch_id for b in ctl._pending] == [b.batch_id for b in queued]
        assert ctl.queue_depth == 2
        assert metrics.shed_requests == 3
        assert ctl.report.admitted_requests == 3

    @pytest.mark.parametrize("policy", [p.value for p in AdmissionPolicy])
    def test_static_server_keeps_the_queue(self, policy):
        from repro.serving import GenRequest, StaticBatchingServer
        from repro.sim.memory import activation_bytes

        strat = make_strategy("intra", MODEL, NODE)
        srv = StaticBatchingServer(
            MODEL, NODE, strat, check_memory=False,
            overload=OverloadConfig(max_pending_requests=2, policy=policy),
        )
        # Room for one single-job group at a time, so groups queue.
        one = MODEL.kv_cache_bytes(1, 18, tp=4) + activation_bytes(MODEL, 1, 1, 4)
        srv.memory.reserve("squeeze", srv.memory.min_available() - 1.5 * one)
        jobs = [
            GenRequest(rid=i, arrival=float(i), context_len=16, gen_tokens=2,
                       deadline=1e6 * (i + 1))
            for i in range(6)
        ]
        groups = [[jobs[0]], [jobs[1]], [jobs[2]], jobs[3:]]
        for i, group in enumerate(groups):
            srv.engine.schedule_at(
                float(i), lambda g=group: srv._enqueue_group(g), priority=10
            )
        srv.session.run_machine()
        states = [j.state for j in jobs]
        assert states == [RequestState.COMPLETED] * 3 + [RequestState.SHED] * 3
        assert srv.metrics.shed_requests == 3


class TestDeadlineShedShortfall:
    """Under shed-by-deadline, dated entries too small to make room for the
    arrival are kept: the arrival is refused alone, nothing is shed for it.
    """

    def test_admission_victims_sheds_nothing(self):
        cfg = OverloadConfig(policy="shed-by-deadline", max_pending_requests=2)
        undated, dated = _batch(1, 1.0), _batch(2, 2.0, deadline=1e6)
        victims, admitted = admission_victims(
            cfg, [undated, dated], 2, size=lambda b: b.size
        )
        assert victims == []
        assert admitted is False

    def test_controller_keeps_the_queue(self):
        cfg = OverloadConfig(
            policy="shed-by-deadline", **TestAdmissionPolicies.CFG
        )
        ctl, sunk, _, metrics = _controller(cfg)
        ctl.on_arrival(_batch(0, 0.0))  # dispatched
        undated, dated = _batch(1, 1.0), _batch(2, 2.0, deadline=1e6)
        ctl.on_arrival(undated)
        ctl.on_arrival(dated)
        pair = _batch(3, 3.0, size=2, deadline=3e6)
        ctl.on_arrival(pair)
        assert [r.state for r in pair.requests] == [RequestState.SHED] * 2
        assert dated.requests[0].state is not RequestState.SHED
        assert [b.batch_id for b in ctl._pending] == [
            undated.batch_id, dated.batch_id,
        ]
        assert metrics.shed_requests == 2
        assert ctl.report.admitted_requests == 3


class TestDeadlines:
    def test_default_deadline_stamped_at_arrival(self):
        cfg = OverloadConfig(default_deadline_us=500.0, breaker_enabled=False)
        ctl, _, _, _ = _controller(cfg)
        b = _batch(0, 10.0)
        ctl.on_arrival(b)
        assert b.requests[0].deadline == 510.0

    def test_expired_pending_batch_is_timed_out_cheaply(self):
        cfg = OverloadConfig(
            max_inflight_batches=1, max_staged_batches=0,
            enable_kv_accounting=False, breaker_enabled=False,
        )
        ctl, sunk, engine, metrics = _controller(cfg)
        blocker = _batch(0, 0.0)
        late = _batch(1, 0.0, deadline=100.0)
        engine.schedule_at(0.0, lambda: ctl.on_arrival(blocker))
        engine.schedule_at(0.0, lambda: ctl.on_arrival(late))
        # The blocker completes long after `late`'s deadline.
        engine.schedule_at(
            500.0, lambda: ctl.on_complete(blocker, 500.0)
        )
        engine.run()
        # `late` was never dispatched — shed from the queue at zero cost.
        assert len(sunk) == 1
        assert late.requests[0].state is RequestState.TIMED_OUT
        assert metrics.timed_out_requests == 1

    def test_mixed_batch_expiry_splits_terminal_states(self):
        cfg = OverloadConfig(breaker_enabled=False)
        ctl, _, engine, metrics = _controller(cfg)
        reqs = [
            Request(rid=0, arrival=0.0, seq_len=8, deadline=100.0),
            Request(rid=1, arrival=0.0, seq_len=8, deadline=1e6),
        ]
        batch = Batch(reqs)
        engine.schedule_at(200.0, lambda: ctl._expire_batch(batch, 200.0))
        engine.run()
        assert reqs[0].state is RequestState.TIMED_OUT
        assert reqs[1].state is RequestState.SHED  # collateral of its batch
        assert metrics.timed_out_requests == 1
        assert metrics.shed_requests == 1


class TestKVAccountant:
    def test_capacity_is_free_memory_after_weights(self):
        acct = KVCacheAccountant(MODEL, NODE, capacity_frac=0.5)
        free = NODE.gpu.memory_capacity - MODEL.weight_bytes_per_device(4)
        assert acct.capacity == pytest.approx(0.5 * free)

    def test_weights_too_big_rejected(self):
        with pytest.raises(ConfigError):
            KVCacheAccountant(OPT_30B.scaled_layers(96), NODE)

    def test_charge_release_cycle(self):
        acct = KVCacheAccountant(MODEL, NODE)
        b = _batch(0, 0.0, size=4, phase=Phase.DECODE, seq=1, context=64)
        nbytes = acct.charge(b)
        assert nbytes > 0
        assert acct.used == nbytes
        assert acct.inflight == 1
        with pytest.raises(ConfigError):
            acct.charge(b)  # double-charge is a bug, not a no-op
        assert acct.release(b.batch_id) == nbytes
        assert acct.used == 0.0
        assert acct.release(b.batch_id) == 0.0  # idempotent
        assert acct.peak == nbytes

    def test_charge_refuses_to_oversubscribe(self):
        acct = KVCacheAccountant(MODEL, NODE)
        per_token = MODEL.kv_cache_bytes(1, 1, tp=4)
        budget_tokens = int(acct.capacity / per_token)
        big = _batch(0, 0.0, phase=Phase.DECODE, seq=1,
                     context=budget_tokens + 8)
        with pytest.raises(OutOfMemoryError):
            acct.charge(big)
        assert acct.used == 0.0  # failed charge leaves no residue

    def test_unpadded_accounting_sums_members(self):
        acct = KVCacheAccountant(MODEL, NODE)
        reqs = [
            Request(rid=0, arrival=0.0, seq_len=1, phase=Phase.DECODE,
                    context_len=16),
            Request(rid=1, arrival=0.0, seq_len=1, phase=Phase.DECODE,
                    context_len=64),
        ]
        mixed = Batch(reqs)
        per_token = MODEL.kv_cache_bytes(1, 1, tp=4)
        # Per-request (context+1) tokens, NOT padded to the max context.
        assert acct.bytes_for(mixed) == pytest.approx(per_token * (17 + 65))


class TestPreemption:
    def _pressured(self, budget_tokens):
        cfg = OverloadConfig(
            max_inflight_batches=1, max_staged_batches=2,
            breaker_enabled=False,
        )
        ctl, sunk, engine, metrics = _controller(cfg)
        per_token = MODEL.kv_cache_bytes(1, 1, tp=4)
        ctl.accountant.capacity = per_token * budget_tokens
        return ctl, sunk, engine, metrics

    def test_young_staged_decode_is_preempted_for_older_work(self):
        ctl, sunk, _, _ = self._pressured(600)
        old = _batch(0, 0.0, phase=Phase.DECODE, seq=1, context=100)
        young = _batch(1, 10.0, phase=Phase.DECODE, seq=1, context=400)
        head = _batch(2, 5.0, phase=Phase.PREFILL, seq=300)
        ctl.on_arrival(old)     # dispatched (101 tokens charged)
        ctl.on_arrival(young)   # staged (401 more tokens charged)
        ctl.on_arrival(head)    # needs 300: only fits if `young` is evicted
        assert ctl.report.preempted_batches == 1
        assert young.batch_id in [b.batch_id for b in ctl._pending]
        assert young.requests[0].state is RequestState.PENDING  # requeued
        assert head.batch_id in ctl._staged
        assert ctl.accountant.used <= ctl.accountant.capacity

    def test_never_preempts_older_batches(self):
        ctl, _, _, _ = self._pressured(600)
        old = _batch(0, 0.0, phase=Phase.DECODE, seq=1, context=100)
        staged = _batch(1, 1.0, phase=Phase.DECODE, seq=1, context=400)
        newcomer = _batch(2, 50.0, phase=Phase.PREFILL, seq=300)
        ctl.on_arrival(old)
        ctl.on_arrival(staged)
        ctl.on_arrival(newcomer)  # younger than `staged`: must wait
        assert ctl.report.preempted_batches == 0
        assert newcomer.batch_id in [b.batch_id for b in ctl._pending]

    def test_impossible_batch_raises_instead_of_wedging(self):
        ctl, _, _, _ = self._pressured(100)
        giant = _batch(0, 0.0, phase=Phase.PREFILL, seq=500)
        with pytest.raises(OutOfMemoryError):
            ctl.on_arrival(giant)  # nothing in flight could ever free room

    def test_preempted_batch_eventually_dispatches(self):
        ctl, sunk, _, _ = self._pressured(600)
        old = _batch(0, 0.0, phase=Phase.DECODE, seq=1, context=100)
        young = _batch(1, 10.0, phase=Phase.DECODE, seq=1, context=400)
        head = _batch(2, 5.0, phase=Phase.PREFILL, seq=300)
        ctl.on_arrival(old)
        ctl.on_arrival(young)
        ctl.on_arrival(head)  # preempts young
        ctl.on_complete(old, 100.0)   # frees 101 tokens, dispatches head
        ctl.on_complete(head, 200.0)  # frees 300: young readmits
        assert young.batch_id in ctl._staged or any(
            b.batch_id == young.batch_id for b in sunk
        )


class TestServerOverload:
    N = 512

    def _overloaded_workload(self):
        # Decode-heavy traffic at ~2× the sustainable rate, in bursts:
        # batch-8 decode steps over a 256-token context at 4000 req/s mean.
        return generative_trace(
            self.N, 4000.0, batch_size=8, context_len=256, seed=0,
            arrival=BurstyProcess(4000.0, burstiness=6.0, phase_requests=64),
        )

    def _run(self, overload, workload=None):
        strat = make_strategy("intra", MODEL, NODE)
        server = Server(
            MODEL, NODE, strat, check_memory=False, record_trace=False,
            overload=overload,
        )
        return server.run(workload or self._overloaded_workload())

    def test_overload_run_is_bounded_and_fully_accounted(self):
        cfg = OverloadConfig(
            max_pending_requests=32, policy="shed-oldest",
            default_deadline_us=100_000.0,
        )
        result = self._run(cfg)
        m = result.metrics
        rpt = result.overload
        assert m.num_terminal == self.N  # every request reached a terminal state
        assert m.shed_requests + m.timed_out_requests > 0  # it really shed
        assert rpt.peak_pending_requests <= cfg.max_pending_requests
        assert rpt.peak_kv_bytes <= rpt.kv_capacity_bytes
        assert rpt.admitted_requests + rpt.shed_requests \
            + rpt.timed_out_requests >= self.N

    def test_admission_control_beats_unbounded_queueing(self):
        # Same overloaded trace with and without admission control: the
        # unprotected server serves everything but its completed-request
        # latency collapses; the protected one keeps served latency bounded
        # by shedding the excess.
        unprotected = self._run(None)
        protected = self._run(
            OverloadConfig(max_pending_requests=32, policy="shed-oldest")
        )
        assert unprotected.metrics.num_completed == self.N
        assert protected.metrics.shed_requests > 0
        p_lat = protected.latency_stats()
        u_lat = unprotected.latency_stats()
        assert p_lat.p99 < u_lat.p99
        assert p_lat.mean < u_lat.mean

    def test_tight_deadlines_shed_queued_work_cheaply(self):
        cfg = OverloadConfig(
            max_pending_requests=256, default_deadline_us=15_000.0
        )
        result = self._run(cfg)
        m = result.metrics
        att = m.slo_attainment()
        assert m.timed_out_requests > 0  # expired while pending: never ran
        assert att is not None and 0.0 <= att <= 1.0
        assert m.slo_tracked > 0
        assert m.num_terminal == self.N

    def test_disabled_overload_is_bit_identical(self):
        base = self._run(None, workload=general_trace(32, 40.0, 2, seed=3))
        again = self._run(None, workload=general_trace(32, 40.0, 2, seed=3))
        assert (
            [r.completion for r in base.metrics.completed]
            == [r.completion for r in again.metrics.completed]
        )


class TestBreakerAndDowngrade:
    def test_breaker_opens_under_sustained_backlog_and_downgrades(self):
        strat = make_strategy("liger", MODEL, NODE)
        cfg = OverloadConfig(
            max_pending_requests=16, policy="reject",
            breaker_check_period_us=2_000.0, breaker_trip_checks=2,
            breaker_high_frac=0.5, breaker_low_frac=0.125,
        )
        server = Server(
            MODEL, NODE, strat, check_memory=False,
            resilience=ResilienceConfig(),
            overload=cfg,
        )
        trace = generative_trace(
            192, 6000.0, batch_size=4, context_len=256, seed=0,
            arrival=BurstyProcess(6000.0, burstiness=8.0, phase_requests=96),
        )
        result = server.run(trace)
        rpt = result.overload
        assert rpt.breaker_trips >= 1
        assert any(ev.state == "open" for ev in rpt.events)
        # The trip downgraded liger to its intra-op fallback.
        assert result.resilience is not None
        assert result.resilience.overload_downgrades >= 1

    def test_breaker_closes_once_queue_drains(self):
        cfg = OverloadConfig(
            max_pending_requests=4,
            breaker_check_period_us=100.0, breaker_trip_checks=1,
            breaker_high_frac=0.5, breaker_low_frac=0.25,
            enable_kv_accounting=False, max_inflight_batches=1,
            max_staged_batches=0,
        )
        ctl, sunk, engine, _ = _controller(cfg)
        first = _batch(0, 0.0)
        engine.schedule_at(0.0, lambda: ctl.on_arrival(first))
        for i in range(1, 5):
            engine.schedule_at(
                1.0, lambda i=i: ctl.on_arrival(_batch(i, 1.0))
            )
        ctl.arm()
        # Drain the queue late: the breaker must open first, then close.
        def drain():
            if not ctl._dispatched:
                return
            bid, batch = next(iter(ctl._dispatched.items()))
            ctl.on_complete(batch, engine.now)

        for t in (1_000.0, 1_100.0, 1_200.0, 1_300.0, 1_400.0):
            engine.schedule_at(t, drain)
        engine.run()
        states = [ev.state for ev in ctl.report.events]
        assert "open" in states
        assert states[-1] == "closed"
        assert not ctl.breaker_open

    def test_open_breaker_fails_fast(self):
        cfg = OverloadConfig(breaker_enabled=False)
        ctl, sunk, _, metrics = _controller(cfg)
        ctl.breaker_open = True  # as if tripped
        b = _batch(0, 0.0)
        ctl.on_arrival(b)
        assert b.requests[0].state is RequestState.SHED
        assert not sunk


class TestLifecycleOverload:
    def test_deadline_misses_and_timeouts_under_pressure(self):
        reqs = chat_workload(
            48, 600.0, prompt_range=(32, 128), gen_tokens=(8, 24),
            seed=1, deadline_us=250_000.0,
        )
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, check_memory=False,
            overload=OverloadConfig(
                max_pending_requests=6, policy="shed-by-deadline"
            ),
        )
        res = srv.run(reqs)
        assert res.timed_out_requests > 0
        assert res.slo_attainment is not None
        total = res.num_requests + res.shed_requests + res.timed_out_requests
        assert total == 48
        for r in reqs:  # terminal-state invariant: nobody left pending
            assert r.state.terminal

    def test_bounded_admission_queue_under_kv_pressure(self):
        reqs = chat_workload(
            40, 3000.0, prompt_range=(64, 256), gen_tokens=(16, 32), seed=2,
        )
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, check_memory=False,
            overload=OverloadConfig(max_pending_requests=8, policy="reject"),
        )
        # Memory for ~600 KV tokens: prompts back up behind resident chats.
        per_token = MODEL.kv_cache_bytes(1, 1, tp=4)
        srv.memory.reserve(
            "test-squeeze", srv.memory.min_available() - 600 * per_token
        )
        res = srv.run(reqs)
        assert res.shed_requests > 0
        total = res.num_requests + res.shed_requests + res.timed_out_requests
        assert total == 40
        for r in reqs:
            assert r.state.terminal

    def test_kv_pressure_triggers_recompute_preemption(self):
        from repro.serving import ChatRequest
        from repro.sim.memory import activation_bytes

        # Three chats and room for ~245 KV tokens: Z (100 tokens) admits
        # immediately; O (200 tokens, loose deadline) blocks; A (80 tokens,
        # tight deadline) passes O via EDF.  When Z finishes, O still does
        # not fit — until it preempts the younger A, which re-prefills its
        # accumulated context and completes afterwards.
        z = ChatRequest(rid=0, arrival=0.0, prompt_len=92, gen_tokens=8,
                        deadline=500_000.0)
        o = ChatRequest(rid=1, arrival=10.0, prompt_len=180, gen_tokens=20,
                        deadline=5_000_000.0)
        a = ChatRequest(rid=2, arrival=20.0, prompt_len=72, gen_tokens=40,
                        deadline=400_000.0)
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, check_memory=False, prefill_batch=1,
            overload=OverloadConfig(
                max_pending_requests=64, policy="shed-by-deadline"
            ),
        )
        per_token = MODEL.kv_cache_bytes(1, 1, tp=4)
        budget = 245 * per_token + 2 * activation_bytes(MODEL, 1, 1, 4)
        srv.memory.reserve(
            "test-squeeze", srv.memory.min_available() - budget
        )
        res = srv.run([z, o, a])
        assert res.preemptions >= 1
        assert res.num_requests == 3  # everyone completed despite eviction
        for r in (z, o, a):
            assert r.state is RequestState.COMPLETED
