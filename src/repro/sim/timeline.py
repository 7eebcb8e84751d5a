"""Compiled-timeline fast path: batched replay of HYBRID round windows.

Under steady-state decode the engine spends ~80% of its wall time inside a
*window* — the span between one HYBRID pre-kick host observation (the
"anchor", where :class:`~repro.core.runtime.LigerRuntime` plans and launches
the next round) and the next.  Within a window the host issues nothing: the
machine's evolution is a pure function of the stream queues, the resident
set, and the armed engine events.  Cross-stream gating serializes rounds per
GPU, so the window's command set is fixed the moment the round is launched.

:class:`TimelineExecutor` exploits this.  After the runtime launches a round
it *compiles* the window: a straight-line mini-simulation walks the same
state machine as :class:`~repro.sim.gpu.Machine` + the engine loop (pump
sweeps, left-over admission, piecewise progress banking, the single
completion timer) and precomputes every event's firing time, every kernel's
completion, every trace row, and the end-of-window machine state.  It then
*commits* the whole window as one batched advance: stream queues are spliced
forward, residents/collectives are installed at their end-of-window values,
trace rows and completion-observer calls are emitted at their exact
simulated instants, surviving events are bulk-inserted with
:meth:`Engine.schedule_many`, and the next anchor is scheduled directly —
no per-kernel heap churn, no per-command pump events.

**Bit-identity contract.**  The mini-simulation performs the *same floating
point operations in the same order* as the interpreted path.  Times are
never shifted or re-derived from cached offsets (float addition is not
translation-invariant, so replaying memoized *offsets* would drift in
ULPs); every instant is recomputed with the machine's own arithmetic,
merely without the event-loop interpreter around it.  Every data-dependent
branch the real path would take is either mirrored exactly or guarded:
anything the compiler does not model — a foreign engine event inside the
window (request arrival, telemetry heartbeat, another machine on a shared
engine), a fault injector, a host callback on a mid-round event — aborts
compilation *before any live state is touched*, and the window executes on
the interpreted path instead.  Fast path on and off are therefore
bit-identical by construction; the golden-trace suite pins it.

Two mutations during compilation are deliberate and bail-transparent: new
run states consume the global ``ready_seq`` counter (only relative order is
observable, and the interpreted path assigns the same relative order), and
the machine's shape-keyed slowdown memo is written through (the memoized
values are exactly what the interpreted path would compute and store).

One modelled-contract note: completion observers are assumed *machine
neutral* — they may read state and finish batches, but must not submit
stream commands or schedule engine events that re-enter the machine
mid-window.  Every observer in this codebase satisfies that (the serving
layer's round chain only re-kicks through the anchor callback).

Counters (``timeline_builds`` / ``timeline_replays`` / ``timeline_bails`` /
``batched_events``) surface through ``strategy.perf_counters()`` as
``repro_perf_*`` gauges.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Engine, EventHandle
from repro.sim.events import CudaEvent
from repro.sim.gpu import Gpu, Machine, _CollectiveRun, _EPS, _RunState
from repro.sim.stream import Command, CommandKind, Stream

__all__ = ["TimelineExecutor"]

_LAUNCH = CommandKind.LAUNCH
_RECORD_EVENT = CommandKind.RECORD_EVENT

# Mini-event kind codes (ints, so heap tuples stay comparable).
_EV_PUMP = 0
_EV_TIMER = 1
_EV_KICK = 2
_EV_ANCHOR = 3

#: Runaway guard for the compile loop — a steady window is a few dozen
#: events; anything this large means un-modelled feedback, so bail.
_MAX_WINDOW_EVENTS = 100_000

#: Adaptive profitability gate.  A window replay saves per-event engine
#: churn but pays a fixed compile-and-commit cost, so it only wins once a
#: window batches roughly this many events (measured breakeven ~8-14 on
#: the Table-1 scenarios).  Below the threshold the executor stops
#: attempting windows — both paths are bit-identical, so the choice is
#: free — and re-probes every ``_GATE_PROBE_EVERY`` windows in case the
#: workload shifts phase (decode -> prefill burst).
_GATE_MIN_AVG = 8.0
_GATE_PROBE_EVERY = 64
_GATE_WARMUP = 16


class _Bail(Exception):
    """Internal: abort compilation, fall back to the interpreted path."""


class _VStream:
    """Virtual head-state of one stream (commands are indexed, not copied).

    ``queue`` aliases the real deque read-only: nothing runs between compile
    and commit, so the live queue cannot change under the mirror, and the
    mirror itself only advances the ``consumed`` index (commit pops exactly
    that many entries off the real deque).
    """

    __slots__ = (
        "real", "queue", "consumed", "blocked_on", "running", "avail_pump_at",
    )

    def __init__(self, stream: Stream) -> None:
        self.real = stream
        self.queue = stream.queue
        self.consumed = 0
        self.blocked_on: Optional[CudaEvent] = stream.blocked_on_event
        self.running = stream.running_kernel
        self.avail_pump_at = stream.avail_pump_at

    # Duck-typed for Machine._admission_key (rs.stream.priority).
    @property
    def priority(self) -> int:
        return self.real.priority


class _VGpu:
    """Virtual per-device state, seeded from copies of the live run states.

    Built field-by-field in :meth:`_WindowSim.__init__`'s flat setup loop
    (windows average only a few events, so per-window construction cost is
    the fast path's dominant overhead — no ``__init__`` indirection here).
    """

    __slots__ = (
        "gpu_id", "streams", "ready", "resident", "active_local",
        "used_occupancy", "epoch", "rates_epoch",
    )


class TimelineExecutor:
    """Compiles and batch-commits HYBRID anchor-to-anchor windows."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.timeline_builds = 0
        self.timeline_replays = 0
        self.timeline_bails = 0
        self.batched_events = 0
        # Profitability gate state: an exponential moving average of events
        # batched per replayed window (seeded at the breakeven threshold so
        # the warmup windows all attempt), plus the probe countdown used
        # while gated off.
        self._window_avg = _GATE_MIN_AVG
        self._probe = 0
        # Identity maps classifying armed engine events by their pre-bound
        # callbacks (the machine builds these closures once, in gpu order).
        self._pump_fn_gpu = {
            id(fn): g for g, fn in enumerate(machine._run_pump_fns)
        }
        self._kick_fn_gpu = {
            id(fn): g for g, fn in enumerate(machine._kick_pump_fns)
        }
        # Arm seed-event tracking: from here on the machine appends every
        # pump/kick/deferred handle it schedules, so each window's seed set
        # is discovered in O(pending) instead of scanning the engine heap
        # (which is O(total queued arrivals) and turned the fast path into
        # an O(n²) walk over long workloads).
        machine._track_events = True

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def fast_forward(self, pre_kick_event: CudaEvent) -> bool:
        """Try to compile and commit the window opened by ``pre_kick_event``.

        Called by the runtime right after a HYBRID round launch, while the
        anchor's engine event is still on the stack — so no pump has run yet
        and the window's command set is exactly what was just submitted plus
        the previous round's in-flight tail.  Returns True when the window
        was committed as one batched advance; False means no live state was
        touched and the interpreted path proceeds as if this was never
        called.
        """
        machine = self.machine
        if machine.halted or machine.fault_injector is not None:
            return False
        if (
            self.timeline_replays >= _GATE_WARMUP
            and self._window_avg < _GATE_MIN_AVG
        ):
            # Recent windows were too small to amortize the compile-and-
            # commit cost; skip (bit-identical either way) and only probe
            # occasionally to notice a phase change.
            self._probe += 1
            if self._probe < _GATE_PROBE_EVERY:
                return False
            self._probe = 0
        self.timeline_builds += 1
        try:
            st = self._compile(pre_kick_event)
            self._commit(st)
        except _Bail:
            self.timeline_bails += 1
            return False
        self.timeline_replays += 1
        self._window_avg += (st.events_consumed - self._window_avg) * 0.125
        return True

    # ------------------------------------------------------------------
    # Compilation (side-effect-free on live state; _Bail aborts cleanly)
    # ------------------------------------------------------------------
    def _compile(self, pre_kick_event: CudaEvent) -> "_WindowSim":
        machine = self.machine
        engine: Engine = machine.engine
        waiters = pre_kick_event._host_waiters
        if len(waiters) != 1 or pre_kick_event._stream_waiters:
            raise _Bail  # someone else is watching the pre-kick

        # Seed events come from the machine's own tracking, not a heap
        # scan: every pending pump/kick handle was appended at schedule
        # time (so list order is engine insertion order — the seq
        # tiebreaker for same-instant seeds), and fired handles read as
        # cancelled.  Foreign events are not enumerated here at all; the
        # commit-time heap verification rejects any window a foreign event
        # interleaves.
        pump_gpu = self._pump_fn_gpu
        kick_gpu = self._kick_fn_gpu
        seeds: List[Tuple[float, int, int, int, int]] = []
        seed_handles: List[EventHandle] = []
        alive: List[EventHandle] = []
        for handle in machine._tracked_events:
            if handle.cancelled:
                continue
            alive.append(handle)
            g = pump_gpu.get(id(handle.callback))
            if g is not None:
                code, prio = _EV_PUMP, 5
            else:
                g = kick_gpu.get(id(handle.callback))
                if g is None:
                    # A deferred host callback: not modelled, but also not
                    # consumed — the commit verification bails if it is due
                    # inside the window.
                    continue
                code, prio = _EV_KICK, 4
            seeds.append((handle.time, prio, len(seed_handles), code, g))
            seed_handles.append(handle)
        machine._tracked_events = alive
        timer = machine._completion_timer
        if timer is not None:
            # Seeded with virtual generation 0; ties are impossible (no
            # other event uses priority 1), so its seq slot is arbitrary.
            seeds.append((timer.time, 1, len(seed_handles), _EV_TIMER, 0))
            seed_handles.append(timer)

        st = _WindowSim(
            machine, pre_kick_event, seeds, seed_handles, self._kick_fn_gpu
        )
        st.run()

        if st.anchor_time is None:
            raise _Bail  # the window never produced a next anchor
        until = engine._run_until
        if until is not None and st.anchor_time > until:
            raise _Bail  # the batched advance would overshoot run(until)
        return st

    # ------------------------------------------------------------------
    # Commit (applies the compiled window to live state)
    # ------------------------------------------------------------------
    def _commit(self, st: "_WindowSim") -> None:
        machine = self.machine
        engine = machine.engine
        heap = engine._heap

        # Verify-and-consume — the only fallible step, done before any
        # state is touched.  Everything live in the heap up to the anchor
        # instant must be either a seed event the window consumed (popped
        # off tombstone-free) or an admission-class foreign event.
        # Priority >= 10 is the engine's host-side admission class (request
        # arrivals, retry requeues, router deliveries): such callbacks only
        # touch host-side queues and call ``maybe_kick``, which no-ops
        # while the round chain is active — they cannot alter the machine's
        # in-window evolution.  They *do* interleave with completion
        # observers (a continuous-batching server reads its arrival queue
        # when a batch retires), so ones due before the window's last
        # completion are consumed here and executed at their exact instants
        # in the action merge below; later ones stay in the heap and fire
        # normally before the rescheduled anchor.  Any other foreign event
        # (heartbeats snapshot machine state mid-window, host callbacks
        # re-enter the runtime) forces the interpreted path: push the
        # popped entries back — same multiset, same pop order — and bail.
        seed_handles = st._seed_handles
        expect = {id(seed_handles[i]) for i in st._consumed_seed_seqs}
        bound_t = st.anchor_time
        last_action_t = st.actions[-1][2] if st.actions else float("-inf")
        heappop = heapq.heappop
        heappush = heapq.heappush
        popped: List[tuple] = []
        kept: List[tuple] = []
        deferred: List[tuple] = []
        ok = True
        while heap:
            entry = heap[0]
            handle = entry[3]
            if handle.cancelled:
                heappop(heap)
                engine._tombstones -= 1
                continue
            if entry[0] > bound_t or (entry[0] == bound_t and entry[1] > 4):
                break
            if id(handle) in expect:
                popped.append(heappop(heap))
            elif entry[1] >= 10:
                if entry[0] < last_action_t:
                    deferred.append(heappop(heap))
                else:
                    kept.append(heappop(heap))
            else:
                ok = False
                break
        for entry in kept:
            heappush(heap, entry)
        if not ok or len(popped) != len(expect):
            for entry in popped:
                heappush(heap, entry)
            for entry in deferred:
                heappush(heap, entry)
            raise _Bail
        foreign_calls: List[Tuple[float, Callable[[], None]]] = []
        for entry in deferred:
            handle = entry[3]
            foreign_calls.append((entry[0], handle.callback))
            engine._live -= 1
            handle.cancelled = True
            handle.callback = None
        for entry in popped:
            handle = entry[3]
            engine._live -= 1
            handle.cancelled = True
            handle.callback = None

        # Run states leave the virtual world: point them at real streams
        # before anything downstream (trace rows, later machine code) reads
        # stream attributes through them.
        for rs in st.all_rs:
            rs.stream = rs.stream.real  # type: ignore[union-attr]

        # Splice stream queues forward to their end-of-window heads.
        for vgpu in st.vgpus:
            for vs in vgpu.streams:
                real = vs.real
                if vs.consumed:
                    popleft = real.queue.popleft
                    for _ in range(vs.consumed):
                        popleft()
                    real.retired += vs.consumed
                real.running_kernel = vs.running
                real.blocked_on_event = vs.blocked_on
                real.avail_pump_at = vs.avail_pump_at

        # Blocks established in-window that outlive the window: the
        # interpreted path registered a per-GPU kick on the event the moment
        # the WAIT reached the stream head (Machine._pump), so the commit
        # must register the same waiter on the real event — its eventual
        # record() otherwise finds no stream waiter and the blocked stream
        # resumes only on an incidental pump of its GPU, or never.  The
        # entries left in st.vwaiters are exactly these blocks (_record
        # popped every event that recorded in-window); pre-window blocks
        # keep the waiter the interpreted path already registered.
        kick_pumps = machine._kick_pump_fns
        for event, gpu_ids in st.vwaiters.items():
            for gpu_id in gpu_ids:
                event.add_stream_waiter(kick_pumps[gpu_id])

        # CUDA events recorded inside the window.
        for ev, t in st.recorded_events:
            ev.recorded_at = t
            ev._stream_waiters.clear()
            ev._host_waiters.clear()

        # Install the end-of-window device state.
        for gpu, vgpu in zip(machine.gpus, st.vgpus):
            gpu.ready = vgpu.ready
            gpu.resident = vgpu.resident
            gpu.active_local = vgpu.active_local
            gpu.used_occupancy = vgpu.used_occupancy
            gpu.resident_epoch = vgpu.epoch
            # The clones carry their contention stamps; the epoch those
            # stamps are valid for travels with them.
            gpu.rates_epoch = vgpu.rates_epoch
        machine._collectives = st.vcolls
        machine._last_bank_time = st.last_bank
        machine.kernels_completed += st.kernels_completed
        for g, flag in enumerate(st.pump_scheduled):
            machine._pump_scheduled[g] = flag

        # Re-arm the completion timer and the next anchor with inlined
        # schedule_at bodies (two calls per window adds up; the times are
        # finite and >= now by mirror construction, so the entry-point
        # checks would all be no-ops).  This happens BEFORE the survivor
        # splice: the interpreted path scheduled the anchor at the pre-kick
        # record, so any surviving kick sharing the anchor's exact
        # (time, priority) was created later and must draw a later seq —
        # the mini-sim already consumed every earlier tie-mate in-window,
        # which is precisely why it survived.  Splicing survivors first
        # would invert that tie and fire the kick before the anchor.
        engine._events_processed += st.events_consumed + len(foreign_calls)
        self.batched_events += st.events_consumed
        seq = engine._seq
        if st.timer_gen > 0:
            # The window superseded the completion timer.  The old handle
            # was either consumed above (it fired in-window) or is armed at
            # a stale time — cancel() no-ops on the former.
            old_timer = machine._completion_timer
            if old_timer is not None:
                old_timer.cancel()
            if st.timer_abs is not None:
                timer = EventHandle(
                    st.timer_abs, machine._on_completion_timer, engine
                )
                heappush(heap, (st.timer_abs, 1, next(seq), timer))
                engine._live += 1
                machine._completion_timer = timer
            else:
                machine._completion_timer = None
        anchor = EventHandle(bound_t, st.anchor_cb, engine)
        heappush(heap, (bound_t, 4, next(seq), anchor))
        engine._live += 1
        # One batched splice for everything else that outlives the window.
        run_pumps = machine._run_pump_fns
        survivors = [
            (
                time,
                5 if code == _EV_PUMP else 4,
                run_pumps[data] if code == _EV_PUMP else kick_pumps[data],
            )
            for time, code, data in st.survivors
        ]
        if survivors:
            # Survivor handles join the tracked list so the next window
            # finds them as seeds.
            machine._tracked_events.extend(engine.schedule_many(survivors))

        # Emit trace rows and completion-observer calls at their exact
        # simulated instants (observers read engine.now through the host),
        # interleaved with the consumed admission-class callbacks in engine
        # pop order: a completion at time T fires off the priority-1 timer,
        # so it precedes a same-instant admission event — strictly earlier
        # admissions run first.
        trace = machine.trace
        observers = machine._completion_observers
        fi = 0
        nf = len(foreign_calls)
        for code, payload, end in st.actions:
            while fi < nf and foreign_calls[fi][0] < end:
                engine.now = foreign_calls[fi][0]
                foreign_calls[fi][1]()
                fi += 1
            engine.now = end
            if code == 0:  # local completion
                if trace is not None:
                    trace.record_kernel(payload, end=end)
                for fn in observers:
                    fn(payload.kernel, end)
            else:  # collective completion
                members = payload.members.values()
                if trace is not None:
                    for rs in members:
                        trace.record_kernel(rs, end=end)
                for fn in observers:
                    for rs in members:
                        fn(rs.kernel, end)


class _WindowSim:
    """The mini-simulation: Machine + engine semantics in straight-line form.

    Every method mirrors its :class:`Machine` namesake — same float
    expressions, same iteration orders, same epsilon comparisons.  Anything
    that diverges from the modelled shape raises :class:`_Bail` before any
    live state is modified.
    """

    def __init__(
        self,
        machine: Machine,
        pre_kick_event: CudaEvent,
        seeds: List[Tuple[float, int, int, int, int]],
        seed_handles: List[EventHandle],
        kick_gpus: Dict[int, int],
    ) -> None:
        self.machine = machine
        engine = machine.engine
        self.pre_kick_event = pre_kick_event
        self.anchor_delay, self.anchor_cb = pre_kick_event._host_waiters[0]
        self.anchor_time: Optional[float] = None

        # Virtual mirrors of the machine's mutable state, built in one flat
        # pass.  Clones go through ``__new__`` + slot stores rather than the
        # dataclass constructor: this runs once per window and windows are
        # only a handful of events, so construction cost is the fast path's
        # single largest overhead.  (``ready_seq`` is copied, never drawn
        # from the global counter.)
        all_rs: List[_RunState] = []
        self.all_rs = all_rs
        vstreams: Dict[int, _VStream] = {}
        copies: Dict[int, _RunState] = {}
        vgpus: List[_VGpu] = []
        self.vgpus = vgpus
        new_rs = _RunState.__new__
        for gpu in machine.gpus:
            vstr: List[_VStream] = []
            for stream in gpu.streams:
                vs = _VStream(stream)
                vstreams[id(stream)] = vs
                vstr.append(vs)
            vgpu = _VGpu.__new__(_VGpu)
            vgpu.gpu_id = gpu.gpu_id
            vgpu.streams = vstr
            vgpu.used_occupancy = gpu.used_occupancy
            vgpu.epoch = gpu.resident_epoch
            vgpu.rates_epoch = gpu.rates_epoch
            ready: List[_RunState] = []
            for rs in gpu.ready:
                c = new_rs(_RunState)
                c.kernel = rs.kernel
                c.gpu_id = rs.gpu_id
                c.stream = vstreams[id(rs.stream)]  # type: ignore[assignment]
                c.ready_seq = rs.ready_seq
                c.ready_at = rs.ready_at
                c.start_at = rs.start_at
                c.remaining = rs.remaining
                c.slowdown = rs.slowdown
                c.contention = rs.contention
                c.stretched = rs.stretched
                all_rs.append(c)
                copies[id(rs)] = c
                ready.append(c)
            vgpu.ready = ready
            resident: Dict[int, _RunState] = {}
            for uid, rs in gpu.resident.items():
                c = copies.get(id(rs))
                if c is None:
                    c = new_rs(_RunState)
                    c.kernel = rs.kernel
                    c.gpu_id = rs.gpu_id
                    c.stream = vstreams[id(rs.stream)]  # type: ignore[assignment]
                    c.ready_seq = rs.ready_seq
                    c.ready_at = rs.ready_at
                    c.start_at = rs.start_at
                    c.remaining = rs.remaining
                    c.slowdown = rs.slowdown
                    c.contention = rs.contention
                    c.stretched = rs.stretched
                    all_rs.append(c)
                    copies[id(rs)] = c
                resident[uid] = c
            vgpu.resident = resident
            vgpu.active_local = {
                uid: copies[id(rs)] for uid, rs in gpu.active_local.items()
            }
            vgpus.append(vgpu)
        self.vcolls: Dict[int, _CollectiveRun] = {
            uid: _CollectiveRun(
                op=crun.op,
                members={g: copies[id(rs)] for g, rs in crun.members.items()},
                started_at=crun.started_at,
                remaining=crun.remaining,
                slowdown=crun.slowdown,
                stretched=crun.stretched,
            )
            for uid, crun in machine._collectives.items()
        }
        self.last_bank = machine._last_bank_time
        self.pump_scheduled = [
            bool(machine._pump_scheduled.get(g))
            for g in range(machine.node.num_gpus)
        ]
        self.timer_gen = 0
        self.timer_abs: Optional[float] = (
            machine._completion_timer.time
            if machine._completion_timer is not None
            else None
        )
        self._kick_gpus = kick_gpus

        # Mini event queue: (time, priority, seq, code, data).  Seeds are
        # numbered 0..n-1 in tracking order (== engine insertion order, the
        # only ordering the seq field must preserve — seeds of equal time
        # always share a priority class); virtual events are numbered from
        # len(seeds) up, preserving creation order exactly as the engine's
        # monotone counter would.
        self.queue = list(seeds)
        heapq.heapify(self.queue)
        self._seed_handles = seed_handles
        self._vseq_base = len(seeds)
        self.vseq = self._vseq_base
        self.now = engine.now

        # Outputs for the commit phase.
        self.events_consumed = 0
        self.kernels_completed = 0
        self._consumed_seed_seqs: List[int] = []
        self.recorded_events: List[Tuple[CudaEvent, float]] = []
        self.vrecorded: Dict[int, float] = {}
        # Stream blocks established inside the window, keyed by the event
        # object (not its id): entries whose event records in-window are
        # popped by _record; whatever remains at window end is a block that
        # outlives the window and needs a real stream waiter at commit.
        self.vwaiters: Dict[CudaEvent, List[int]] = {}
        self.actions: List[Tuple[int, object, float]] = []
        self.survivors: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    def _push(self, time: float, priority: int, code: int, data: int) -> None:
        heapq.heappush(self.queue, (time, priority, self.vseq, code, data))
        self.vseq += 1

    def run(self) -> None:
        queue = self.queue
        steps = 0
        while queue:
            time, priority, seq, code, data = heapq.heappop(queue)
            if code == _EV_ANCHOR:
                self.anchor_time = time
                # Whatever is still queued outlives the window.  Seeded
                # entries (seq below the virtual base) are still armed on
                # the real heap and need nothing; virtual timers re-arm
                # from timer_abs at commit; virtual pumps/kicks are
                # collected for the batched splice, in creation order so
                # same-instant ties land exactly as repeated schedule
                # calls would order them.
                leftovers = sorted(
                    (s, t, c, d)
                    for t, p, s, c, d in queue
                    if s >= self._vseq_base and c != _EV_TIMER
                )
                self.survivors = [(t, c, d) for s, t, c, d in leftovers]
                return
            if code == _EV_TIMER and data != self.timer_gen:
                continue  # superseded timer: a tombstone, never counted
            self.now = time
            self.events_consumed += 1
            if seq < self._vseq_base:
                self._consumed_seed_seqs.append(seq)
            if code == _EV_PUMP:
                self._run_pump(data)
            elif code == _EV_KICK:
                self._schedule_pump(data)
            else:  # _EV_TIMER
                self._on_completion_timer()
            steps += 1
            if steps > _MAX_WINDOW_EVENTS:
                raise _Bail
        raise _Bail  # queue drained without reaching the next anchor

    # ------------------------------------------------------------------
    # Mirrors of Machine internals (same names, same arithmetic)
    # ------------------------------------------------------------------
    def _schedule_pump(self, gpu_id: int, delay: float = 0.0) -> None:
        if delay <= _EPS:
            if self.pump_scheduled[gpu_id]:
                return
            self.pump_scheduled[gpu_id] = True
            self._push(self.now + 0.0, 5, _EV_PUMP, gpu_id)
        else:
            self._push(self.now + delay, 5, _EV_PUMP, gpu_id)

    def _schedule_avail_pump(self, vs: _VStream, command: Command) -> None:
        if vs.avail_pump_at == command.pump_at:
            return
        vs.avail_pump_at = command.pump_at
        if command.pump_at < self.now - 1e-9:
            raise _Bail  # the real schedule_at would raise; surface it there
        self._push(max(command.pump_at, self.now), 5, _EV_PUMP, vs.real.gpu_id)

    def _run_pump(self, gpu_id: int) -> None:
        self.pump_scheduled[gpu_id] = False
        if self._pump(self.vgpus[gpu_id]):
            self._reschedule()

    def _is_recorded(self, event: CudaEvent) -> bool:
        return event.recorded_at is not None or id(event) in self.vrecorded

    def _record(self, event: CudaEvent, now: float) -> None:
        if self._is_recorded(event):
            raise _Bail  # double record: let the interpreted path raise
        self.vrecorded[id(event)] = now
        self.recorded_events.append((event, now))
        # Pre-registered (real) waiters first, then window-registered ones —
        # the same append order record() would walk.
        for resume in event._stream_waiters:
            g = self._kick_gpus.get(id(resume))
            if g is None:
                raise _Bail  # waiter belonging to another machine
            self._push(now + 0.0, 4, _EV_KICK, g)
        for g in self.vwaiters.pop(event, ()):
            self._push(now + 0.0, 4, _EV_KICK, g)
        for delay, _cb in event._host_waiters:
            if event is self.pre_kick_event:
                self._push(now + delay, 4, _EV_ANCHOR, 0)
            else:
                raise _Bail  # a host callback the compiler cannot model

    def _pump(self, vgpu: _VGpu) -> bool:
        now = self.now
        threshold = now + _EPS
        streams = vgpu.streams
        progressed = True
        became_ready = False
        while progressed:
            progressed = False
            for vs in streams:
                if vs.running is not None:
                    continue
                blocked = vs.blocked_on
                if blocked is not None:
                    if self._is_recorded(blocked):
                        vs.blocked_on = None
                    else:
                        continue
                if vs.consumed >= len(vs.queue):
                    continue
                cmd = vs.queue[vs.consumed]
                if cmd.available_at > threshold:
                    self._schedule_avail_pump(vs, cmd)
                    continue
                kind = cmd.kind
                if kind is _LAUNCH:
                    vs.consumed += 1
                    kernel = cmd.kernel
                    vs.running = kernel
                    rs = _RunState(
                        kernel=kernel,
                        gpu_id=vgpu.gpu_id,
                        stream=vs,  # type: ignore[arg-type]
                        ready_at=now,
                    )
                    self.all_rs.append(rs)
                    vgpu.ready.append(rs)
                    became_ready = True
                    progressed = True
                elif kind is _RECORD_EVENT:
                    vs.consumed += 1
                    self._record(cmd.event, now)
                    progressed = True
                else:  # WAIT_EVENT
                    vs.consumed += 1
                    event = cmd.event
                    if self._is_recorded(event):
                        progressed = True
                    else:
                        vs.blocked_on = event
                        self.vwaiters.setdefault(event, []).append(
                            vgpu.gpu_id
                        )
        if became_ready or vgpu.ready:
            return self._try_admit(vgpu)
        return False

    def _try_admit(self, vgpu: _VGpu) -> bool:
        if not vgpu.ready:
            return False
        self._bank_progress()
        admitted_any = False
        vgpu.ready.sort(key=Machine._admission_key)
        still_ready: List[_RunState] = []
        for rs in vgpu.ready:
            if vgpu.used_occupancy + rs.kernel.occupancy <= 1.0 + _EPS:
                self._admit(vgpu, rs)
                admitted_any = True
            else:
                still_ready.append(rs)
        vgpu.ready = still_ready
        return admitted_any

    def _admit(self, vgpu: _VGpu, rs: _RunState) -> None:
        now = self.now
        rs.start_at = now
        # Live mutation, but bail-transparent: the interpreted path stamps
        # the identical value at the identical admission instant.
        rs.kernel.meta["_started_at"] = now
        rs.remaining = rs.kernel.duration
        vgpu.resident[rs.kernel.uid] = rs
        vgpu.used_occupancy += rs.kernel.occupancy
        vgpu.epoch += 1
        coll = rs.kernel.collective
        if coll is None:
            vgpu.active_local[rs.kernel.uid] = rs
            return
        crun = self.vcolls.get(coll.uid)
        if crun is None:
            crun = _CollectiveRun(op=coll, remaining=coll.duration)
            self.vcolls[coll.uid] = crun
        if vgpu.gpu_id in crun.members:
            raise _Bail  # duplicate member: let the interpreted path raise
        crun.members[vgpu.gpu_id] = rs
        if set(crun.members) == set(coll.participants):
            crun.started_at = now

    def _bank_progress(self) -> None:
        now = self.now
        dt = now - self.last_bank
        if dt <= _EPS:
            self.last_bank = now
            return
        for vgpu in self.vgpus:
            for rs in vgpu.active_local.values():
                rem = rs.remaining - dt / rs.slowdown
                rs.remaining = rem if rem > 0.0 else 0.0
                rs.stretched += dt
        for crun in self.vcolls.values():
            if crun.started_at >= 0.0:
                rem = crun.remaining - dt / crun.slowdown
                crun.remaining = rem if rem > 0.0 else 0.0
                crun.stretched += dt
        self.last_bank = now

    def _reschedule(self) -> None:
        stamp = self.machine._stamp_contention
        next_dt: Optional[float] = None
        for vgpu in self.vgpus:
            if not vgpu.resident:
                continue
            if vgpu.rates_epoch != vgpu.epoch:
                vgpu.rates_epoch = vgpu.epoch
                stamp(vgpu.resident)
            for rs in vgpu.active_local.values():
                slow = rs.contention
                rs.slowdown = slow
                dt = rs.remaining * slow
                if next_dt is None or dt < next_dt:
                    next_dt = dt
        for crun in self.vcolls.values():
            if crun.started_at < 0.0:
                continue
            slow = None
            for rs in crun.members.values():
                member = rs.contention
                if slow is None or member > slow:
                    slow = member
            slow = 1.0 if slow is None else slow
            crun.slowdown = slow
            dt = crun.remaining * slow
            if next_dt is None or dt < next_dt:
                next_dt = dt
        # Supersede the armed timer: bump the generation (a virtual
        # tombstone) and re-arm at now + max(0, dt) — the engine's exact
        # schedule() arithmetic.
        self.timer_gen += 1
        self.timer_abs = None
        if next_dt is not None:
            self.timer_abs = self.now + max(0.0, next_dt)
            self._push(self.timer_abs, 1, _EV_TIMER, self.timer_gen)

    def _on_completion_timer(self) -> None:
        self._bank_progress()
        now = self.now
        touched: set = set()
        due_locals = [
            rs
            for vgpu in self.vgpus
            for rs in vgpu.active_local.values()
            if rs.remaining <= _EPS
        ]
        due_colls = [
            crun
            for crun in self.vcolls.values()
            if crun.started_at >= 0.0 and crun.remaining <= _EPS
        ]
        for rs in due_locals:
            self._complete_local(rs, now)
            touched.add(rs.gpu_id)
        for crun in due_colls:
            self._complete_collective(crun, now)
            touched.update(crun.members.keys())
        # Device order, as the machine's completion path pumps.
        for gpu_id in sorted(touched):
            self._pump(self.vgpus[gpu_id])
        self._reschedule()

    def _release(self, rs: _RunState) -> None:
        vgpu = self.vgpus[rs.gpu_id]
        del vgpu.resident[rs.kernel.uid]
        vgpu.active_local.pop(rs.kernel.uid, None)
        vgpu.used_occupancy = max(
            0.0, vgpu.used_occupancy - rs.kernel.occupancy
        )
        vgpu.epoch += 1
        vs: _VStream = rs.stream  # type: ignore[assignment]
        if vs.running is rs.kernel:
            vs.running = None

    def _complete_local(self, rs: _RunState, now: float) -> None:
        self._release(rs)
        self.kernels_completed += 1
        self.actions.append((0, rs, now))

    def _complete_collective(self, crun: _CollectiveRun, now: float) -> None:
        del self.vcolls[crun.op.uid]
        for rs in crun.members.values():
            self._release(rs)
            self.kernels_completed += 1
            if self.machine.trace is not None:
                rs.stretched = crun.stretched  # members share the op timeline
        self.actions.append((1, crun, now))
