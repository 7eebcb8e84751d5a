"""Compiled-timeline fast path: equivalence matrix + executor unit tests.

The non-negotiable contract of :mod:`repro.sim.timeline` is that the fast
path is *bit-identical* to the interpreted path: for any scenario, running
with ``enable_timeline_replay=True`` must produce exactly the trace that
``enable_timeline_replay=False`` produces — same rows, same float bits.
The matrix here covers all four servers x both scheduling policies x
caches on/off, fingerprinting each arm with the golden-trace digest.

The flag only exists on :class:`~repro.core.LigerConfig`, so the matrix is
liger-only by construction: the intra strategy has no LigerRuntime and no
HYBRID window structure, hence nothing to replay — its goldens in
``tests/test_session.py`` already pin that path.

The executor unit tests cover the adaptive profitability gate (EMA of
events/window decides whether compiling a window is worth the fixed
cost), the bail guards, and the counter surface exported through
``strategy.perf_counters()``.
"""

from __future__ import annotations

import pytest

from serving_goldens import fingerprint, run_scenario

from repro.core import LigerConfig

SERVERS = ("server", "lifecycle", "static", "continuous")
POLICIES = ("dichotomy", "expert_overlap")


def _config(policy: str, caches: bool, replay: bool) -> LigerConfig:
    return LigerConfig(
        policy=policy,
        enable_plan_cache=caches,
        enable_assembly_cache=caches,
        enable_sim_memos=caches,
        enable_timeline_replay=replay,
    )


class TestReplayEquivalenceMatrix:
    """Fast path on/off must fingerprint identically, every combination."""

    @pytest.mark.parametrize("server", SERVERS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("caches", [True, False], ids=["cache_on", "cache_off"])
    def test_replay_on_off_identical(self, server, policy, caches):
        _, trace_on = run_scenario(
            server, "liger", cache_off=not caches,
            liger_config=_config(policy, caches, replay=True),
        )
        _, trace_off = run_scenario(
            server, "liger", cache_off=not caches,
            liger_config=_config(policy, caches, replay=False),
        )
        assert fingerprint(trace_on) == fingerprint(trace_off)

    def test_default_config_matches_golden(self):
        """Replay defaults on; the committed goldens must still hold."""
        import json

        from serving_goldens import GOLDEN_PATH

        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            goldens = json.load(fh)
        _, trace = run_scenario(
            "continuous", "liger",
            liger_config=_config("dichotomy", caches=True, replay=True),
        )
        assert fingerprint(trace) == goldens["continuous/liger"]


def _bound_strategy(replay: bool = True, **cfg):
    """Returns (strategy, server): building the server binds the strategy,
    which is when the runtime (and its TimelineExecutor) come to exist."""
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.api import make_strategy
    from repro.serving.generation import ContinuousBatchingServer

    model, node = OPT_30B.scaled_layers(4), v100_nvlink_node(4)
    strat = make_strategy(
        "liger", model, node,
        config=LigerConfig(enable_timeline_replay=replay, **cfg),
    )
    srv = ContinuousBatchingServer(
        model, node, strat, max_batch=8, pipeline_depth=2, check_memory=False
    )
    return strat, srv


class TestExecutorCounters:
    def test_counters_present_and_active(self):
        """A real run replays windows and reports it through perf_counters."""
        from repro.serving.generation import generation_workload

        strat, srv = _bound_strategy()
        srv.run(generation_workload(8, 200.0, seed=0))
        counters = strat.perf_counters()
        for key in (
            "timeline_builds",
            "timeline_replays",
            "timeline_bails",
            "batched_events",
            "fanout_workers",
        ):
            assert key in counters, key
        assert counters["timeline_builds"] >= 1
        assert counters["timeline_replays"] >= 1
        assert counters["batched_events"] >= counters["timeline_replays"]
        assert counters["fanout_workers"] == 0

    def test_replay_off_has_no_timeline_counters(self):
        """With the flag off the runtime builds no executor at all."""
        strat, _ = _bound_strategy(replay=False)
        assert strat.runtime.timeline is None
        counters = strat.perf_counters()
        assert "timeline_builds" not in counters
        assert "timeline_replays" not in counters
        # fanout provenance is reported regardless of the replay flag.
        assert counters["fanout_workers"] == 0


class TestAdaptiveGate:
    """The EMA profitability gate skips compilation on unprofitable windows."""

    def _executor(self):
        from repro.sim.timeline import TimelineExecutor

        strat, _ = _bound_strategy()
        return TimelineExecutor(strat.runtime.machine)

    def test_gate_skips_after_warmup_below_threshold(self, monkeypatch):
        import repro.sim.timeline as tl

        ex = self._executor()
        monkeypatch.setattr(tl, "_GATE_WARMUP", 4)
        monkeypatch.setattr(tl, "_GATE_PROBE_EVERY", 10)
        # Pretend warmup completed with a hopeless average.
        ex.timeline_replays = 4
        ex._window_avg = 1.0

        class _Boom(Exception):
            pass

        def explode(*a, **k):  # compilation must never be reached while gated
            raise _Boom

        monkeypatch.setattr(ex, "_compile", explode)
        sentinel = object()
        # 9 gated calls return False without compiling; the 10th probes.
        for _ in range(tl._GATE_PROBE_EVERY - 1):
            assert ex.fast_forward(sentinel) is False
        with pytest.raises(_Boom):
            ex.fast_forward(sentinel)

    def test_gate_open_during_warmup(self, monkeypatch):
        import repro.sim.timeline as tl

        ex = self._executor()
        ex._window_avg = 0.0  # hopeless average, but...
        ex.timeline_replays = 0  # ...still in warmup: must attempt compile.

        class _Boom(Exception):
            pass

        monkeypatch.setattr(
            ex, "_compile", lambda *a, **k: (_ for _ in ()).throw(_Boom())
        )
        with pytest.raises(_Boom):
            ex.fast_forward(object())

    def test_profitable_average_keeps_gate_open(self, monkeypatch):
        import repro.sim.timeline as tl

        ex = self._executor()
        ex.timeline_replays = 100
        ex._window_avg = tl._GATE_MIN_AVG + 1.0

        class _Boom(Exception):
            pass

        monkeypatch.setattr(
            ex, "_compile", lambda *a, **k: (_ for _ in ()).throw(_Boom())
        )
        with pytest.raises(_Boom):
            ex.fast_forward(object())


class TestBailGuards:
    def test_fault_injector_disables_fast_path(self):
        """Fault-injected machines never take the compiled path."""
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultPlan, GpuStraggler
        from repro.serving.generation import generation_workload

        strat, srv = _bound_strategy()
        plan = FaultPlan(
            [GpuStraggler(start=500.0, end=700.0, gpu=0, factor=2.0)]
        )
        FaultInjector(plan).arm(strat.runtime.machine)
        srv.run(generation_workload(4, 200.0, seed=0))
        counters = strat.perf_counters()
        assert counters.get("timeline_replays", 0) == 0

    def test_sixteen_gpu_node_replays_bit_identically(self):
        """The machine pumps same-instant completions in device order, so
        nodes past 8 GPUs take the compiled path too, bit-identically."""
        from repro.hw import v100_nvlink_node
        from repro.models import OPT_8B
        from repro.serving.api import make_strategy
        from repro.serving.generation import (
            ContinuousBatchingServer,
            generation_workload,
        )

        def run(replay):
            model, node = OPT_8B.scaled_layers(2), v100_nvlink_node(16)
            strat = make_strategy(
                "liger", model, node,
                config=LigerConfig(enable_timeline_replay=replay),
            )
            srv = ContinuousBatchingServer(
                model, node, strat, max_batch=8, pipeline_depth=2,
                check_memory=False, record_trace=True,
            )
            result = srv.run(generation_workload(8, 200.0, seed=0))
            return strat.perf_counters(), fingerprint(result.trace)

        counters_on, trace_on = run(replay=True)
        _, trace_off = run(replay=False)
        assert counters_on["timeline_replays"] >= 1
        assert trace_on == trace_off

    def test_observer_heartbeats_still_bit_identical(self):
        """Foreign low-priority events (heartbeats) force bails, not drift."""
        from repro.obs.observability import Observability

        _, trace_on = run_scenario(
            "continuous", "liger",
            liger_config=_config("dichotomy", caches=True, replay=True),
            observability=Observability(),
        )
        _, trace_off = run_scenario(
            "continuous", "liger",
            liger_config=_config("dichotomy", caches=True, replay=False),
            observability=Observability(),
        )
        assert fingerprint(trace_on) == fingerprint(trace_off)

def _window_machine():
    """A bare 2-GPU machine suitable for hand-built window programs."""
    from repro.hw import v100_nvlink_node
    from repro.sim import Engine, Machine, NullContention, Trace

    return Machine(
        v100_nvlink_node(2), Engine(),
        contention=NullContention(), trace=Trace(),
    )


def _kernel(name, dur, occ=0.4):
    from repro.sim import Kernel, KernelKind

    return Kernel(
        name=name, kind=KernelKind.COMPUTE, duration=dur,
        occupancy=occ, memory_intensity=0.3, batch_id=0,
    )


def _rows(machine):
    return [(r.name, r.start, r.end) for r in machine.trace.rows]


class TestWindowBoundaryBlocks:
    """Streams that block *inside* a window and stay blocked past its end.

    The interpreted path registers a per-GPU kick on the event the moment
    the WAIT reaches the stream head (Machine._pump); the commit must
    install the same waiter on the real event, or the event's later
    record() kicks nobody and the blocked stream stalls — forever, when
    its GPU never sees another incidental pump (this program deadlocks
    without the fix).
    """

    def _program(self, machine, anchor_times):
        """Per-GPU skew: gpu1's kernel runs 2x longer than gpu0's, so the
        anchor (pre-kick + host delay on gpu0) fires while gpu0's secondary
        stream is still blocked on gpu1's end-of-round record."""
        from repro.sim import CudaEvent

        a0 = machine.gpu(0).stream("a0")
        a1 = machine.gpu(0).stream("a1", priority=1)
        b0 = machine.gpu(1).stream("b0")
        pre_kick = CudaEvent("prekick")
        end_g1 = CudaEvent("end@g1")
        pre_kick.on_host(
            lambda: anchor_times.append(machine.engine.now), delay=0.5
        )
        machine.launch(a0, _kernel("k0", 10.0), available_at=0.0)
        machine.record_event(a0, pre_kick, available_at=0.0)
        machine.launch(b0, _kernel("k1", 20.0), available_at=0.0)
        machine.record_event(b0, end_g1, available_at=0.0)
        # Blocks in-window (at t=0), unblocks only after the window ends
        # (end_g1 records at t=20; the window ends at the 10.5 anchor).
        machine.wait_event(a1, end_g1, available_at=0.0)
        machine.launch(a1, _kernel("k2", 5.0), available_at=0.0)
        return pre_kick

    def _run(self, fast):
        from repro.sim.timeline import TimelineExecutor

        machine = _window_machine()
        # Built before the program so submit-time pumps are tracked seeds.
        ex = TimelineExecutor(machine) if fast else None
        anchor_times = []
        pre_kick = self._program(machine, anchor_times)
        if ex is not None:
            assert ex.fast_forward(pre_kick) is True
            assert ex.timeline_replays == 1
        machine.run()
        return _rows(machine), anchor_times, machine.kernels_completed

    def test_blocked_stream_resumes_after_committed_window(self):
        rows_fast, anchors_fast, done_fast = self._run(fast=True)
        rows_interp, anchors_interp, done_interp = self._run(fast=False)
        assert done_fast == done_interp == 3
        assert anchors_fast == anchors_interp == [10.5]
        assert rows_fast == rows_interp


class TestAnchorSurvivorTie:
    """A surviving kick at exactly the anchor instant must fire AFTER the
    anchor: the interpreted path scheduled the anchor at the pre-kick
    record, before the kick existed, so the anchor holds the lower seq.
    The commit must draw the anchor's seq before splicing survivors or the
    tie inverts in the real engine.
    """

    def _program(self, machine, observed):
        """Both GPUs' kernels retire at exactly t=10 off the one completion
        timer; gpu1's end-of-round record then releases a blocked stream,
        producing a kick at the anchor's exact (time, priority)."""
        from repro.sim import CudaEvent

        a0 = machine.gpu(0).stream("a0")
        b0 = machine.gpu(1).stream("b0")
        b1 = machine.gpu(1).stream("b1", priority=1)
        pre_kick = CudaEvent("prekick")
        end_g1 = CudaEvent("end@g1")
        # At the anchor instant the interpreted path has NOT yet run the
        # kick released by end_g1's record — the kick drew a later seq.
        pre_kick.on_host(
            lambda: observed.append(
                (machine.engine.now, bool(machine._pump_scheduled.get(1)))
            ),
            delay=0.0,
        )
        machine.launch(a0, _kernel("k0", 10.0), available_at=0.0)
        machine.record_event(a0, pre_kick, available_at=0.0)
        machine.launch(b0, _kernel("k1", 10.0), available_at=0.0)
        machine.record_event(b0, end_g1, available_at=0.0)
        machine.wait_event(b1, end_g1, available_at=0.0)
        machine.launch(b1, _kernel("k3", 5.0), available_at=0.0)
        return pre_kick

    def _run(self, fast):
        from repro.sim.timeline import TimelineExecutor

        machine = _window_machine()
        # Built before the program so submit-time pumps are tracked seeds.
        ex = TimelineExecutor(machine) if fast else None
        observed = []
        pre_kick = self._program(machine, observed)
        if ex is not None:
            assert ex.fast_forward(pre_kick) is True
            assert ex.timeline_replays == 1
        machine.run()
        return _rows(machine), observed, machine.kernels_completed

    def test_anchor_fires_before_same_instant_survivor_kick(self):
        rows_fast, observed_fast, done_fast = self._run(fast=True)
        rows_interp, observed_interp, done_interp = self._run(fast=False)
        assert done_fast == done_interp == 3
        # (anchor time, "had the survivor kick already run?") — the kick
        # must not have fired yet in either path.
        assert observed_interp == [(10.0, False)]
        assert observed_fast == observed_interp
        assert rows_fast == rows_interp


class TestUnchangedContendedDevice:
    """A device whose resident set does not change in-window keeps its
    contention stamp across the window: the clones carry each resident's
    factor and the commit installs the device's stamp epoch, so its two
    co-resident kernels keep their >1 slowdown through and after the
    batched advance.
    """

    def _run(self, fast):
        from repro.hw import v100_nvlink_node
        from repro.sim import CudaEvent, DefaultContention, Engine, Machine, Trace
        from repro.sim.timeline import TimelineExecutor

        machine = Machine(
            v100_nvlink_node(2), Engine(),
            contention=DefaultContention(), trace=Trace(),
        )
        # Built before any submission so submit-time pumps are tracked.
        ex = TimelineExecutor(machine) if fast else None
        machine.launch(
            machine.gpu(1).stream("b0"), _kernel("long0", 100.0), 0.0
        )
        machine.launch(
            machine.gpu(1).stream("b1"), _kernel("long1", 120.0), 0.0
        )
        machine.run(until=1.0)
        gpu1 = machine.gpu(1)
        assert len(gpu1.resident) == 2
        assert all(rs.contention > 1.0 for rs in gpu1.resident.values())

        anchors = []
        a0 = machine.gpu(0).stream("a0")
        pre_kick = CudaEvent("prekick")
        pre_kick.on_host(lambda: anchors.append(machine.engine.now), delay=0.5)
        machine.launch(a0, _kernel("k0", 10.0), available_at=1.0)
        machine.record_event(a0, pre_kick, available_at=1.0)
        if ex is not None:
            assert ex.fast_forward(pre_kick) is True
            assert ex.timeline_replays == 1
        machine.run()
        return _rows(machine), anchors

    def test_committed_window_keeps_contention(self):
        rows_fast, anchors_fast = self._run(fast=True)
        rows_interp, anchors_interp = self._run(fast=False)
        assert anchors_fast == anchors_interp == [11.5]
        assert rows_fast == rows_interp


class TestGaugeExport:
    def test_timeline_gauges_in_prometheus_export(self):
        """Satellite: timeline + fanout counters ride the repro_perf_* section."""
        from repro.obs import Observability

        from repro.hw import v100_nvlink_node
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy
        from serving_goldens import reset_batch_ids

        reset_batch_ids()
        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_strategy("liger", model, node, config=LigerConfig())
        obs = Observability()
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            check_memory=False,
            observability=obs, record_trace=False,
        )
        srv.run(generation_workload(
            12, 1200.0, context_len=16, gen_tokens=(1, 1), seed=0
        ))
        text = obs.to_prometheus()
        for gauge in (
            "repro_perf_timeline_builds",
            "repro_perf_timeline_replays",
            "repro_perf_timeline_bails",
            "repro_perf_batched_events",
            "repro_perf_fanout_workers",
        ):
            assert gauge in text, gauge
        counters = strat.perf_counters()
        builds = counters["timeline_builds"]
        assert f"repro_perf_timeline_builds {builds}" in text
        assert "repro_perf_fanout_workers 0" in text

    def test_replay_off_exports_zeroed_timeline_gauges(self):
        """Without an executor the timeline gauges read 0 (the session
        registers the full repro_perf_* section unconditionally and the
        reader defaults missing counters to zero — same contract as the
        disabled plan cache)."""
        from repro.obs import Observability

        from repro.hw import v100_nvlink_node
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy
        from serving_goldens import reset_batch_ids

        reset_batch_ids()
        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_strategy(
            "liger", model, node,
            config=LigerConfig(enable_timeline_replay=False),
        )
        obs = Observability()
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            check_memory=False,
            observability=obs, record_trace=False,
        )
        srv.run(generation_workload(6, 400.0, seed=0))
        text = obs.to_prometheus()
        assert "repro_perf_timeline_builds 0" in text
        assert "repro_perf_timeline_replays 0" in text
        assert "repro_perf_batched_events 0" in text
        # fanout provenance is independent of the replay flag.
        assert "repro_perf_fanout_workers 0" in text
