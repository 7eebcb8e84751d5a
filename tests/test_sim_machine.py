"""Integration tests for the Machine executor: streams, admission, events.

These pin down the semantics contract of DESIGN.md §5 — in-order streams,
asynchronous launch availability, the left-over admission policy (and the
communication-lag behaviour it produces), inter-stream event sync, and
collective rendezvous.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, StreamProtocolError
from repro.hw import v100_nvlink_node
from repro.sim import (
    ContentionModel,
    CudaEvent,
    Engine,
    Kernel,
    KernelKind,
    Machine,
    NullContention,
    Trace,
)
from repro.sim.interconnect import CollectiveCostModel, NcclConfig


def make_machine(num_gpus=2, contention=None):
    node = v100_nvlink_node(num_gpus)
    return Machine(
        node,
        Engine(),
        contention=contention or NullContention(),
        trace=Trace(),
    )


def k(name, dur, kind=KernelKind.COMPUTE, occ=0.9, mem=0.3, batch=0):
    return Kernel(
        name=name,
        kind=kind,
        duration=dur,
        occupancy=occ,
        memory_intensity=mem,
        batch_id=batch,
    )


# ----------------------------------------------------------------------
# Stream FIFO semantics
# ----------------------------------------------------------------------
class TestStreamOrder:
    def test_single_stream_serializes_kernels(self):
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 10.0), available_at=0.0)
        m.launch(s, k("b", 5.0), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["a"].start == 0.0 and rows["a"].end == 10.0
        assert rows["b"].start == 10.0 and rows["b"].end == 15.0

    def test_two_streams_overlap_when_occupancy_allows(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("a", 10.0, occ=0.5), available_at=0.0)
        m.launch(s1, k("b", 10.0, occ=0.4), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["a"].start == 0.0
        assert rows["b"].start == 0.0  # concurrent

    def test_command_not_visible_before_available_at(self):
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("late", 1.0), available_at=25.0)
        m.run()
        row = m.trace.rows[0]
        assert row.start == 25.0

    def test_launch_overhead_hidden_behind_running_kernel(self):
        # Kernel b is made available while a still runs: starts back-to-back.
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 100.0), available_at=0.0)
        m.launch(s, k("b", 10.0), available_at=40.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["b"].start == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Left-over admission policy
# ----------------------------------------------------------------------
class TestAdmission:
    def test_oversubscribed_kernels_serialize(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("big_a", 10.0, occ=0.9), available_at=0.0)
        m.launch(s1, k("big_b", 10.0, occ=0.9), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        starts = sorted([rows["big_a"].start, rows["big_b"].start])
        assert starts == [0.0, 10.0]

    def test_compute_admitted_before_comm_at_same_instant(self):
        # comm (0.2) + compute (0.9) cannot co-run; compute wins the tie even
        # though the comm stream has higher priority — the §2.3.1 lag.
        m = make_machine(1)
        sc = m.gpu(0).stream("compute", priority=0)
        sm = m.gpu(0).stream("comm", priority=10)
        comm = k("comm", 10.0, kind=KernelKind.COMM, occ=0.2)
        m.launch(sm, comm, available_at=0.0)
        m.launch(sc, k("gemm", 10.0, occ=0.9), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["gemm"].start == 0.0
        assert rows["comm"].start == pytest.approx(10.0)
        assert rows["comm"].queueing_delay == pytest.approx(10.0)

    def test_small_comm_fits_alongside_compute(self):
        # Reduced-channel comm (0.05) co-runs with a 0.9 GEMM: the §3.5
        # mitigation is what makes overlap possible at all.
        m = make_machine(1)
        sc = m.gpu(0).stream("compute")
        sm = m.gpu(0).stream("comm")
        m.launch(sc, k("gemm", 10.0, occ=0.9), available_at=0.0)
        m.launch(sm, k("comm", 10.0, kind=KernelKind.COMM, occ=0.05), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["gemm"].start == 0.0
        assert rows["comm"].start == 0.0

    def test_earlier_ready_kernel_admitted_first(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        s2 = m.gpu(0).stream("s2")
        m.launch(s0, k("hog", 10.0, occ=0.9), available_at=0.0)
        # comm ready at t=2; compute ready at t=5. At t=10 the earlier-ready
        # comm kernel is admitted first (no same-instant tie here).
        m.launch(s1, k("comm", 5.0, kind=KernelKind.COMM, occ=0.9), available_at=2.0)
        m.launch(s2, k("late_compute", 5.0, occ=0.9), available_at=5.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["comm"].start == pytest.approx(10.0)
        assert rows["late_compute"].start == pytest.approx(15.0)


# ----------------------------------------------------------------------
# Event synchronization
# ----------------------------------------------------------------------
class TestEvents:
    def test_inter_stream_wait_orders_across_streams(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        ev = CudaEvent("ev")
        m.launch(s0, k("producer", 20.0, occ=0.4), available_at=0.0)
        m.record_event(s0, ev, available_at=0.0)
        m.wait_event(s1, ev, available_at=0.0)
        m.launch(s1, k("consumer", 5.0, occ=0.4), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["consumer"].start == pytest.approx(20.0)

    def test_wait_on_already_recorded_event_passes_through(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        ev = CudaEvent("ev")
        m.record_event(s0, ev, available_at=0.0)
        m.wait_event(s1, ev, available_at=5.0)
        m.launch(s1, k("x", 1.0), available_at=5.0)
        m.run()
        assert m.trace.rows[0].start == pytest.approx(5.0)

    def test_event_cannot_record_twice(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        ev = CudaEvent("ev")
        m.record_event(s0, ev, available_at=0.0)
        m.record_event(s0, ev, available_at=1.0)
        with pytest.raises(StreamProtocolError):
            m.run()

    def test_host_callback_fires_after_record(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        ev = CudaEvent("ev")
        seen = []
        ev.on_host(lambda: seen.append(m.engine.now), delay=2.0)
        m.launch(s0, k("a", 10.0), available_at=0.0)
        m.record_event(s0, ev, available_at=0.0)
        m.run()
        assert seen == [pytest.approx(12.0)]

    def test_cross_gpu_event_sync(self):
        m = make_machine(2)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(1).stream("s0")
        ev = CudaEvent("xgpu")
        m.launch(s0, k("g0", 30.0), available_at=0.0)
        m.record_event(s0, ev, available_at=0.0)
        m.wait_event(s1, ev, available_at=0.0)
        m.launch(s1, k("g1", 5.0), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["g1"].start == pytest.approx(30.0)
        assert rows["g1"].gpu == 1

    def test_unrecorded_event_deadlock_detected(self):
        m = make_machine(1)
        s1 = m.gpu(0).stream("s1")
        ev = CudaEvent("never")
        m.wait_event(s1, ev, available_at=0.0)
        m.launch(s1, k("stuck", 1.0), available_at=0.0)
        with pytest.raises(DeadlockError):
            m.run()


# ----------------------------------------------------------------------
# Collective rendezvous
# ----------------------------------------------------------------------
class TestCollectives:
    def test_allreduce_waits_for_all_ranks(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology, NcclConfig())
        coll = ccm.make_allreduce(1e6, [0, 1], batch_id=0)
        s0 = m.gpu(0).stream("comm")
        s1 = m.gpu(1).stream("comm")
        # rank 1 launches 40us late: rank 0's member spins until then.
        m.launch(s0, coll.members[0], available_at=0.0)
        m.launch(s1, coll.members[1], available_at=40.0)
        m.run()
        rows = {r.gpu: r for r in m.trace.rows}
        assert rows[0].start == 0.0
        assert rows[1].start == pytest.approx(40.0)
        # Both complete together, duration counted from rendezvous.
        assert rows[0].end == rows[1].end
        assert rows[0].end == pytest.approx(40.0 + coll.duration)

    def test_zero_byte_allreduce_completes(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_allreduce(0.0, [0, 1])
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        m.launch(m.gpu(1).stream("c"), coll.members[1], available_at=0.0)
        m.run()
        assert m.all_idle()
        assert len(m.trace.rows) == 2

    def test_p2p_pair_completes_together(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_p2p(2e6, 0, 1, batch_id=3)
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        m.launch(m.gpu(1).stream("c"), coll.members[1], available_at=0.0)
        m.run()
        ends = {r.end for r in m.trace.rows}
        assert len(ends) == 1

    def test_missing_rank_deadlocks(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_allreduce(1e6, [0, 1])
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        with pytest.raises(DeadlockError):
            m.run()

    def test_collective_after_compute_on_same_stream(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_allreduce(1e6, [0, 1])
        s0 = m.gpu(0).stream("main")
        s1 = m.gpu(1).stream("main")
        m.launch(s0, k("compute0", 10.0), available_at=0.0)
        m.launch(s0, coll.members[0], available_at=0.0)
        m.launch(s1, k("compute1", 30.0), available_at=0.0)
        m.launch(s1, coll.members[1], available_at=0.0)
        m.run()
        comm_rows = [r for r in m.trace.rows if r.kind is KernelKind.COMM]
        assert all(r.end == pytest.approx(30.0 + coll.duration) for r in comm_rows)


# ----------------------------------------------------------------------
# CUDA_DEVICE_MAX_CONNECTIONS (soft model)
# ----------------------------------------------------------------------
class TestMaxConnections:
    def test_oversubscribed_stream_pays_delay(self):
        from repro.hw import v100_nvlink_node
        from repro.sim import NullContention, Trace

        m = Machine(
            v100_nvlink_node(1), Engine(), contention=NullContention(),
            trace=Trace(), max_connections=2, connection_contention_delay=10.0,
        )
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        s2 = m.gpu(0).stream("s2")
        m.launch(s0, k("a", 50.0, occ=0.2), available_at=0.0)
        m.launch(s1, k("b", 50.0, occ=0.2), available_at=0.0)
        # Third concurrent stream: over the connection limit.
        m.launch(s2, k("c", 50.0, occ=0.2), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["a"].start == 0.0
        assert rows["b"].start == 0.0
        assert rows["c"].start == pytest.approx(10.0)

    def test_within_limit_no_delay(self):
        from repro.hw import v100_nvlink_node
        from repro.sim import NullContention, Trace

        m = Machine(
            v100_nvlink_node(1), Engine(), contention=NullContention(),
            trace=Trace(), max_connections=4,
        )
        streams = [m.gpu(0).stream(f"s{i}") for i in range(3)]
        for i, s in enumerate(streams):
            m.launch(s, k(f"k{i}", 10.0, occ=0.2), available_at=0.0)
        m.run()
        assert all(r.start == 0.0 for r in m.trace.rows)

    def test_invalid_config_rejected(self):
        from repro.errors import ConfigError
        from repro.hw import v100_nvlink_node

        with pytest.raises(ConfigError):
            Machine(v100_nvlink_node(1), Engine(), max_connections=0)


# ----------------------------------------------------------------------
# Completion observers and accounting
# ----------------------------------------------------------------------
class TestAccounting:
    def test_completion_observer_called_per_kernel(self):
        m = make_machine(1)
        seen = []
        m.on_kernel_complete(lambda kern, t: seen.append((kern.name, t)))
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 5.0), available_at=0.0)
        m.launch(s, k("b", 5.0), available_at=0.0)
        m.run()
        assert seen == [("a", 5.0), ("b", 10.0)]

    def test_kernels_completed_counter(self):
        m = make_machine(2)
        for g in (0, 1):
            s = m.gpu(g).stream("s0")
            m.launch(s, k(f"k{g}", 5.0), available_at=0.0)
        m.run()
        assert m.kernels_completed == 2

    def test_all_idle_after_run(self):
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 5.0), available_at=0.0)
        m.run()
        assert m.all_idle()


class TestSameInstantPumpOrder:
    """Devices touched by one completion instant are pumped in id order.

    On a 16-GPU node the touched ids straddle 8, where a set of small ints
    stops iterating in ascending order; the pump order (and with it the
    admission order of the kernels that become ready) must not depend on
    that layout.
    """

    def test_sixteen_gpu_pump_and_admission_order(self):
        m = make_machine(16)
        coll = CollectiveCostModel(m.node.topology, NcclConfig()).make_p2p(
            4e6, 9, 3, name="p2p"
        )
        for g in (2, 10):
            m.launch(m.gpu(g).stream("s0"), k(f"a{g}", coll.duration), 0.0)
        for g in (9, 3):
            m.launch(m.gpu(g).stream("s0"), coll.members[g], 0.0)
        for g in (2, 3, 9, 10):
            m.launch(m.gpu(g).stream("s0"), k(f"b{g}", 5.0), 0.0)

        pumped, admitted = [], []
        real_pump, real_admit = m._pump, m._admit

        def pump(gpu):
            pumped.append((m.engine.now, gpu.gpu_id))
            return real_pump(gpu)

        def admit(gpu, rs):
            admitted.append((m.engine.now, rs.kernel.name))
            real_admit(gpu, rs)

        m._pump, m._admit = pump, admit
        m.run()

        instant = coll.duration
        assert [g for t, g in pumped if t == instant] == [2, 3, 9, 10]
        assert [n for t, n in admitted if t == instant] == [
            "b2", "b3", "b9", "b10",
        ]
        assert m.kernels_completed == 2 + 2 + 4


# ----------------------------------------------------------------------
# Rate recomputation: once per callback, only for changed devices
# ----------------------------------------------------------------------
class CountingContention(ContentionModel):
    """Records each call's resident count; co-resident kernels run 1.5x."""

    pure_in_shape = True

    def __init__(self):
        self.sizes = []

    def slowdowns(self, resident):
        kernels = list(resident)
        self.sizes.append(len(kernels))
        slow = 1.5 if len(kernels) > 1 else 1.0
        return {kern.uid: slow for kern in kernels}


class PairContention(ContentionModel):
    """Co-resident compute kernels run 1.5x slower, comm kernels 1.25x."""

    pure_in_shape = True

    def slowdowns(self, resident):
        kernels = list(resident)
        if len(kernels) < 2:
            return {kern.uid: 1.0 for kern in kernels}
        return {
            kern.uid: 1.25 if kern.kind.is_comm else 1.5 for kern in kernels
        }


class TestRateCoalescing:
    def test_collective_completion_reschedules_once(self):
        """Pumping four touched devices admits four kernels, yet the
        completion callback recomputes rates and re-arms the timer once."""
        m = make_machine(4)
        coll = CollectiveCostModel(m.node.topology, NcclConfig()).make_allreduce(
            1e6, [0, 1, 2, 3]
        )
        for g in range(4):
            s = m.gpu(g).stream("s0")
            m.launch(s, coll.members[g], 0.0)
            m.launch(s, k(f"b{g}", 5.0), 0.0)

        calls = [0]
        per_timer = []
        real_reschedule, real_timer = m._reschedule, m._on_completion_timer

        def reschedule():
            calls[0] += 1
            real_reschedule()

        def timer():
            calls[0] = 0
            real_timer()
            live = [
                e for e in m.engine._heap
                if not e[3].cancelled and e[3].callback is timer
            ]
            per_timer.append((m.engine.now, calls[0], len(live)))

        m._reschedule, m._on_completion_timer = reschedule, timer
        m.run()

        d = coll.duration
        assert per_timer == [(d, 1, 1), (d + 5.0, 1, 0)]
        assert m.kernels_completed == 8

    @pytest.mark.parametrize("memo", [False, True], ids=["memo_off", "memo_on"])
    def test_model_called_once_per_shared_resident_set(self, memo):
        """A lone kernel never reaches the model; a release and an
        admission in one callback are one resident-set change."""
        model = CountingContention()
        m = make_machine(1, contention=model)
        m.slowdown_memo = memo
        s0, s1 = m.gpu(0).stream("s0"), m.gpu(0).stream("s1")
        m.launch(s0, k("a", 10.0, occ=0.4), 0.0)
        m.launch(s0, k("c", 10.0, occ=0.4), 0.0)
        m.launch(s1, k("b", 20.0, occ=0.4), 5.0)
        m.run()
        # {a,b} at t=5, then {b,c} at a's completion; with the memo on the
        # second set has the first one's shape and skips the model.
        assert model.sizes == ([2] if memo else [2, 2])
        # a: 5 us solo + 5 us at 1.5x -> 12.5.  b banks 7.5/1.5 = 5 us by
        # then, c runs 10 us at 1.5x -> 27.5; b's last 5 us run solo.
        ends = {r.name: r.end for r in m.trace.rows}
        assert ends == {
            "a": pytest.approx(12.5),
            "c": pytest.approx(27.5),
            "b": pytest.approx(32.5),
        }

    def test_straggler_inflates_contended_compute_not_comm(self):
        """Fault inflation multiplies the stored contention factor of the
        compute kernel only; the collective runs at its member's 1.25x."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, GpuStraggler

        m = make_machine(2, contention=PairContention())
        FaultInjector(
            FaultPlan([GpuStraggler(start=0.0, end=1e6, gpu=0, factor=4.0)])
        ).arm(m)
        coll = CollectiveCostModel(m.node.topology, NcclConfig()).make_allreduce(
            1e6, [0, 1]
        )
        m.launch(m.gpu(0).stream("c"), k("x", 30.0, occ=0.5), 0.0)
        for g in (0, 1):
            m.launch(m.gpu(g).stream("n"), coll.members[g], 0.0)
        m.run()

        d = coll.duration
        t_coll = 1.25 * d  # member on GPU 0 contends; comm is not inflated
        assert t_coll < 30.0 * 1.5 * 4.0  # the collective retires first
        # x runs at 1.5 * 4 = 6x until then, at 4x (alone) afterwards.
        t_x = t_coll + 4.0 * (30.0 - t_coll / 6.0)
        ends = {(r.name, r.gpu): r.end for r in m.trace.rows}
        assert ends[("x", 0)] == pytest.approx(t_x)
        comm_ends = [end for (name, _), end in ends.items() if name != "x"]
        assert comm_ends == [pytest.approx(t_coll)] * 2
