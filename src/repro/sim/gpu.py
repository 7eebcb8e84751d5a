"""The multi-GPU machine: command pumping, admission, progress integration.

This module is the behavioural core of the hardware substitute.  It executes
stream commands with the semantics the paper's scheduling contribution
depends on:

* **In-order streams** — a stream runs one kernel at a time, in FIFO order,
  and a command is only visible to the device once the host has launched it
  (``Command.available_at``).
* **Left-over admission policy** (§2.3.1) — a kernel at the head of its
  stream becomes *ready*; ready kernels are admitted onto the device only
  while the sum of resident SM occupancies stays ≤ 1.  Among kernels ready at
  the same instant, computation kernels are admitted before communication
  kernels regardless of stream priority — reproducing the paper's observation
  that high-priority streams do not prevent communication-kernel execution
  lag.
* **Emergent contention** — kernel progress is integrated piecewise: whenever
  any device's resident set changes, elapsed progress is banked at the old
  rates and, once per event callback, the changed devices' per-kernel
  slowdowns are recomputed from the
  :class:`~repro.sim.contention.ContentionModel`.
* **Collective rendezvous** — a collective's member kernels occupy SMs from
  the moment they are admitted (NCCL kernels spin while waiting for peers),
  but the operation makes progress only once *every* rank has admitted its
  member, at the rate of the most-contended member, and all members finish at
  the same instant.

One :class:`Machine` owns all GPUs of a node so that cross-device state
(collectives, the single completion timer) has a single coordinator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.hw.devices import NodeSpec
from repro.sim.contention import ContentionModel, DefaultContention
from repro.sim.engine import Engine, EventHandle
from repro.sim.events import CudaEvent
from repro.sim.kernel import CollectiveOp, Kernel
from repro.sim.stream import Command, CommandKind, Stream, _fast_command
from repro.sim.tracing import Trace

__all__ = ["Machine", "Gpu"]

_EPS = 1e-6
_ready_seq = itertools.count()

# Hoisted enum members: the pump compares command kinds ~100k times per
# simulated second of decode, and a module-global load beats two attribute
# lookups at that call volume.
_LAUNCH = CommandKind.LAUNCH
_RECORD_EVENT = CommandKind.RECORD_EVENT
_WAIT_EVENT = CommandKind.WAIT_EVENT


@dataclass(slots=True)
class _RunState:
    """A kernel that is ready or resident on a device."""

    kernel: Kernel
    gpu_id: int
    stream: Stream
    ready_seq: int = field(default_factory=lambda: next(_ready_seq))
    ready_at: float = 0.0
    start_at: float = -1.0
    remaining: float = 0.0
    slowdown: float = 1.0
    #: Clamped (>= 1.0) contention-model factor while resident; stamped by
    #: Machine._reschedule when the device's resident set changed.  Fault
    #: inflation is layered on top per reschedule and never stored here.
    contention: float = 1.0
    # Accumulated (stretched-time, no-load-time) for average-slowdown stats.
    stretched: float = 0.0


@dataclass(slots=True)
class _CollectiveRun:
    """Shared progress state of an in-flight collective."""

    op: CollectiveOp
    members: Dict[int, _RunState] = field(default_factory=dict)
    started_at: float = -1.0
    remaining: float = 0.0
    slowdown: float = 1.0
    stretched: float = 0.0

    @property
    def started(self) -> bool:
        return self.started_at >= 0.0


class Gpu:
    """Per-device state: streams, ready set, resident set."""

    def __init__(self, gpu_id: int, machine: "Machine") -> None:
        self.gpu_id = gpu_id
        self.machine = machine
        self.streams: List[Stream] = []
        self.ready: List[_RunState] = []
        self.resident: Dict[int, _RunState] = {}
        self.used_occupancy = 0.0
        #: Non-collective residents in admission order — the progress
        #: integrator iterates this instead of re-filtering ``resident``.
        self.active_local: Dict[int, _RunState] = {}
        #: Bumped on every admit/release.
        self.resident_epoch = 0
        #: The ``resident_epoch`` the residents' ``contention`` factors were
        #: last stamped at; a mismatch makes the next reschedule re-stamp.
        self.rates_epoch = -1

    def stream(self, name: str, priority: int = 0) -> Stream:
        """Get-or-create the stream named ``name`` on this device.

        Idempotent by name: repeated calls return the same stream (asking
        for a different priority on an existing name is a config error) —
        creating a fresh stream per call is the kind of silent concurrency
        bug no caller ever wants.
        """
        for s in self.streams:
            if s.name == name:
                if s.priority != priority:
                    raise ConfigError(
                        f"stream {name!r} on GPU {self.gpu_id} already exists "
                        f"with priority {s.priority}, requested {priority}"
                    )
                return s
        s = Stream(self.gpu_id, name, priority)
        self.streams.append(s)
        return s

    def resident_kernels(self) -> List[Kernel]:
        """Kernels currently occupying this device."""
        return [rs.kernel for rs in self.resident.values()]

    @property
    def busy(self) -> bool:
        return bool(self.resident) or bool(self.ready)

    def all_idle(self) -> bool:
        """True when nothing is resident, ready, or queued on any stream."""
        return not self.busy and all(s.idle for s in self.streams)


class Machine:
    """A simulated multi-GPU node executing stream commands.

    Parameters
    ----------
    node:
        Hardware description (GPU specs + topology).
    engine:
        Shared event loop.  One engine may drive several machines in
        principle; the serving layer uses one machine per node.
    contention:
        Interference model; defaults to the calibrated
        :class:`~repro.sim.contention.DefaultContention`.
    trace:
        Optional timeline recorder.
    """

    def __init__(
        self,
        node: NodeSpec,
        engine: Optional[Engine] = None,
        *,
        contention: Optional[ContentionModel] = None,
        trace: Optional[Trace] = None,
        max_connections: int = 2,
        connection_contention_delay: float = 3.0,
    ) -> None:
        if max_connections < 1:
            raise ConfigError("max_connections must be >= 1")
        if connection_contention_delay < 0:
            raise ConfigError("connection_contention_delay must be >= 0")
        self.node = node
        self.engine = engine or Engine()
        self.contention = contention or DefaultContention()
        self.trace = trace
        #: Models CUDA_DEVICE_MAX_CONNECTIONS (the paper's artifact sets 2):
        #: the host↔GPU command channels are limited, so when more than this
        #: many streams on one device hold pending work, the extra streams'
        #: commands reach the device late.  Hard blocking would risk
        #: artificial deadlocks our event model cannot resolve, so the limit
        #: is soft: each over-subscribed stream pays a per-command
        #: visibility delay (µs).
        self.max_connections = max_connections
        self.connection_contention_delay = connection_contention_delay
        #: Optional fault-injection hook (see :mod:`repro.faults.injector`).
        #: When None — the default — every fault code path is skipped and the
        #: machine behaves bit-for-bit like a fault-free build.
        self.fault_injector = None
        self.gpus: List[Gpu] = [Gpu(i, self) for i in range(node.num_gpus)]
        self._collectives: Dict[int, _CollectiveRun] = {}
        #: Shape-keyed slowdown vectors (see ContentionModel.pure_in_shape):
        #: steady-state decode re-creates the same resident shapes with fresh
        #: kernel uids, so most re-stamps skip the model.
        self._shape_cache: Dict[tuple, tuple] = {}
        self._contention_pure_in_shape = bool(
            getattr(self.contention, "pure_in_shape", False)
        )
        #: Public toggle for the shape memo (the model must also declare
        #: ``pure_in_shape``).  The goldens' cache-off arm
        #: (``tests/serving_goldens.py``) clears it; output is bit-identical.
        self.slowdown_memo = True
        self._last_bank_time = 0.0
        self._completion_timer: Optional[EventHandle] = None
        self._pump_scheduled: Dict[int, bool] = {}
        # Pre-bound per-device pump callbacks: the pump-scheduling paths and
        # event waiters fire tens of thousands of times per simulated second,
        # and building a fresh closure for each showed up in profiles.
        self._run_pump_fns: List[Callable[[], None]] = [
            (lambda gid=g.gpu_id: self._run_pump(gid)) for g in self.gpus
        ]
        self._kick_pump_fns: List[Callable[[], None]] = [
            (lambda gid=g.gpu_id: self._schedule_pump(gid)) for g in self.gpus
        ]
        self.kernels_completed = 0
        # Timeline fast path bookkeeping (repro.sim.timeline): when tracking
        # is armed, every pump/kick/deferred handle this machine schedules is
        # appended here so the window compiler can discover its seed events
        # in O(1) instead of scanning the engine heap.  Fired handles are
        # consumed (cancelled) by the engine, so the executor prunes the list
        # lazily each window.  Completeness is a hit-rate concern only: a
        # pending machine event that slipped past tracking fails the
        # compiler's commit-time heap verification and falls back to the
        # interpreted path.
        self._track_events = False
        self._tracked_events: List[EventHandle] = []
        #: Set by :meth:`halt` — a crashed node.  All submission and pump
        #: paths become no-ops; nothing in flight ever completes.
        self.halted = False
        # Observers notified with each completed kernel (serving layer hooks).
        self._completion_observers: List[Callable[[Kernel, float], None]] = []

    # ------------------------------------------------------------------
    # Topology / construction helpers
    # ------------------------------------------------------------------
    def gpu(self, gpu_id: int) -> Gpu:
        """The per-device state object for ``gpu_id``."""
        if not 0 <= gpu_id < len(self.gpus):
            raise ConfigError(f"no GPU {gpu_id} on node {self.node.name}")
        return self.gpus[gpu_id]

    def on_kernel_complete(self, fn: Callable[[Kernel, float], None]) -> None:
        """Register an observer called as ``fn(kernel, end_time)``."""
        self._completion_observers.append(fn)

    # ------------------------------------------------------------------
    # Command submission (host side)
    # ------------------------------------------------------------------
    def submit(self, stream: Stream, command: Command) -> None:
        """Enqueue a command; a pump is scheduled only when one is needed.

        When the device already has ``max_connections`` busier streams, the
        command additionally pays the connection-contention delay before the
        device sees it (soft CUDA_DEVICE_MAX_CONNECTIONS model).

        A pump at the command's availability instant is scheduled *eagerly*
        only when the stream was idle — otherwise something ahead of this
        command (a running kernel, a blocked event, an earlier queued
        command) still has to retire, and each of those retirements already
        triggers a pump; if that pump finds this command waiting at the head
        it schedules the availability pump *lazily* at the pre-stamped
        ``Command.pump_at``, which makes the skipped eager pumps pure
        no-ops removed from the event stream.
        """
        if self.halted:
            return  # crashed node: commands are dropped on the floor
        gpu = self.gpus[stream.gpu_id]
        # Position of this stream among the device's busy streams (the old
        # busy-list was built only to take this index); the idle test is
        # inlined — this is the hottest property access in the simulator.
        earlier_busy = 0
        for s in gpu.streams:
            if s is stream:
                break
            if s.queue or s.running_kernel is not None or s.blocked_on_event is not None:
                earlier_busy += 1
        if earlier_busy >= self.max_connections:
            command.available_at += self.connection_contention_delay
        if stream.visibility_penalty:
            command.available_at += stream.visibility_penalty
        if self.fault_injector is not None:
            command.available_at += self.fault_injector.submit_delay(stream)
        was_idle = not (
            stream.queue
            or stream.running_kernel is not None
            or stream.blocked_on_event is not None
        )
        stream.queue.append(command)
        now = self.engine.now
        delay = command.available_at - now
        if delay <= _EPS:
            command.pump_at = now
            if was_idle:
                self._schedule_pump(stream.gpu_id, 0.0)
        else:
            command.pump_at = now + delay
            if was_idle:
                self._schedule_avail_pump(stream, command)

    def launch(self, stream: Stream, kernel: Kernel, available_at: float) -> None:
        """Convenience: submit a LAUNCH command."""
        self.submit(stream, _fast_command(_LAUNCH, available_at, kernel=kernel))

    def record_event(self, stream: Stream, event: CudaEvent, available_at: float) -> None:
        """Convenience: submit a RECORD_EVENT command."""
        self.submit(stream, _fast_command(_RECORD_EVENT, available_at, event=event))

    def wait_event(self, stream: Stream, event: CudaEvent, available_at: float) -> None:
        """Convenience: submit a WAIT_EVENT command."""
        self.submit(stream, _fast_command(_WAIT_EVENT, available_at, event=event))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, *, check_quiescent: bool = True) -> float:
        """Drive the engine; verify no stranded work unless ``until`` given."""
        end = self.engine.run(until=until)
        if check_quiescent and until is None:
            stuck = self.stuck_summary()
            if stuck:
                raise DeadlockError(
                    "simulation quiesced with pending work: " + "; ".join(stuck[:8])
                )
        return end

    def stuck_summary(self) -> List[str]:
        """Describe every piece of work currently unable to make progress.

        Used by the quiescence check above and by the fault subsystem's
        watchdog to name the stuck streams/kernels in its diagnostics.
        """
        stuck = [repr(s) for g in self.gpus for s in g.streams if not s.idle]
        stuck += [f"ready:{rs.kernel.name}" for g in self.gpus for rs in g.ready]
        for crun in self._collectives.values():
            if not crun.started:
                missing = sorted(set(crun.op.participants) - set(crun.members))
                stuck.append(
                    f"collective:{crun.op.name} awaiting ranks {missing}"
                )
        return stuck

    # ------------------------------------------------------------------
    # Pumping: advance stream heads into the ready set
    # ------------------------------------------------------------------
    def _schedule_pump(self, gpu_id: int, delay: float = 0.0) -> None:
        # Collapse same-time pumps: one outstanding zero-delay pump per GPU.
        if delay <= _EPS:
            if self._pump_scheduled.get(gpu_id):
                return
            self._pump_scheduled[gpu_id] = True
            handle = self.engine.schedule(
                0.0, self._run_pump_fns[gpu_id], priority=5
            )
        else:
            handle = self.engine.schedule(
                delay, self._run_pump_fns[gpu_id], priority=5
            )
        if self._track_events:
            self._tracked_events.append(handle)

    def _schedule_avail_pump(self, stream: Stream, command: Command) -> None:
        """Arm one pump at ``command.pump_at`` (dedup'd per stream head)."""
        if stream.avail_pump_at == command.pump_at:
            return
        stream.avail_pump_at = command.pump_at
        handle = self.engine.schedule_at(
            command.pump_at, self._run_pump_fns[stream.gpu_id], priority=5
        )
        if self._track_events:
            self._tracked_events.append(handle)

    def _run_pump(self, gpu_id: int) -> None:
        self._pump_scheduled[gpu_id] = False
        if self.halted:
            return
        if self._pump(self.gpus[gpu_id]):
            self._reschedule()

    def _pump(self, gpu: Gpu) -> bool:
        """Advance every stream on ``gpu`` as far as dependencies allow.

        The sweep processes at most one command per stream per pass — the
        per-pass round-robin is load-bearing, because ``ready_seq`` (and
        with it same-instant admission order) follows pop order.  Returns
        whether a kernel was admitted; the event callback then reschedules.
        """
        now = self.engine.now
        threshold = now + _EPS
        streams = gpu.streams
        progressed = True
        became_ready = False
        while progressed:
            progressed = False
            for stream in streams:
                if stream.running_kernel is not None:
                    continue
                blocked = stream.blocked_on_event
                if blocked is not None:
                    if blocked.is_recorded:
                        stream.blocked_on_event = None
                    else:
                        continue
                queue = stream.queue
                if not queue:
                    continue
                cmd = queue[0]
                if cmd.available_at > threshold:
                    # Not yet visible: make sure a pump fires at availability
                    # (the eager submit-time pump is elided for busy streams).
                    self._schedule_avail_pump(stream, cmd)
                    continue
                kind = cmd.kind
                if kind is _LAUNCH:
                    stream.retired += 1
                    queue.popleft()
                    kernel = cmd.kernel
                    stream.running_kernel = kernel
                    gpu.ready.append(
                        _RunState(
                            kernel=kernel,
                            gpu_id=gpu.gpu_id,
                            stream=stream,
                            ready_at=now,
                        )
                    )
                    became_ready = True
                    progressed = True
                elif kind is _RECORD_EVENT:
                    stream.retired += 1
                    queue.popleft()
                    cmd.event.record(now, self._deferred)
                    progressed = True
                else:  # WAIT_EVENT
                    stream.retired += 1
                    queue.popleft()
                    event = cmd.event
                    if event.is_recorded:
                        progressed = True
                    else:
                        stream.blocked_on_event = event
                        event.add_stream_waiter(self._kick_pump_fns[gpu.gpu_id])
        if became_ready or gpu.ready:
            return self._try_admit(gpu)
        return False

    def _deferred(self, delay: float, callback: Callable[[], None]) -> None:
        """Deferred-call hook handed to CudaEvent.record."""
        handle = self.engine.schedule(delay, callback, priority=4)
        if self._track_events:
            self._tracked_events.append(handle)

    # ------------------------------------------------------------------
    # Admission: the left-over policy
    # ------------------------------------------------------------------
    @staticmethod
    def _admission_key(rs: _RunState):
        # Earlier-ready first; at the same instant compute-like kernels are
        # admitted before communication kernels (the GPU's left-over policy
        # favours computation regardless of stream priority); then stream
        # priority, then launch order.
        return (
            rs.ready_at,
            0 if rs.kernel.kind.is_compute_like else 1,
            -rs.stream.priority,
            rs.ready_seq,
        )

    def _try_admit(self, gpu: Gpu) -> bool:
        if not gpu.ready:
            return False
        self._bank_progress()
        admitted_any = False
        gpu.ready.sort(key=self._admission_key)
        still_ready: List[_RunState] = []
        for rs in gpu.ready:
            if gpu.used_occupancy + rs.kernel.occupancy <= 1.0 + _EPS:
                self._admit(gpu, rs)
                admitted_any = True
            else:
                still_ready.append(rs)
        gpu.ready = still_ready
        return admitted_any

    def _admit(self, gpu: Gpu, rs: _RunState) -> None:
        now = self.engine.now
        rs.start_at = now
        # Stamped for completion observers that want measured durations
        # (e.g. online contention estimation) without a full trace.
        rs.kernel.meta["_started_at"] = now
        rs.remaining = rs.kernel.duration
        gpu.resident[rs.kernel.uid] = rs
        gpu.used_occupancy += rs.kernel.occupancy
        gpu.resident_epoch += 1
        coll = rs.kernel.collective
        if coll is None:
            gpu.active_local[rs.kernel.uid] = rs
        if coll is not None:
            crun = self._collectives.get(coll.uid)
            if crun is None:
                crun = _CollectiveRun(op=coll, remaining=coll.duration)
                self._collectives[coll.uid] = crun
            if gpu.gpu_id in crun.members:
                raise SimulationError(
                    f"collective {coll.name}: duplicate member on GPU {gpu.gpu_id}"
                )
            crun.members[gpu.gpu_id] = rs
            if set(crun.members) == set(coll.participants):
                crun.started_at = now

    # ------------------------------------------------------------------
    # Progress integration
    # ------------------------------------------------------------------
    def _bank_progress(self) -> None:
        """Integrate elapsed progress at the current slowdowns."""
        now = self.engine.now
        dt = now - self._last_bank_time
        if dt <= _EPS:
            self._last_bank_time = now
            return
        for gpu in self.gpus:
            for rs in gpu.active_local.values():
                rem = rs.remaining - dt / rs.slowdown
                rs.remaining = rem if rem > 0.0 else 0.0
                rs.stretched += dt
        for crun in self._collectives.values():
            if crun.started_at >= 0.0:
                rem = crun.remaining - dt / crun.slowdown
                crun.remaining = rem if rem > 0.0 else 0.0
                crun.stretched += dt
        self._last_bank_time = now

    def _stamp_contention(self, resident: Dict[int, _RunState]) -> None:
        """Stamp every resident's clamped (>= 1.0) contention factor.

        A lone kernel is 1.0 by the ContentionModel contract and skips the
        model.  When the model declares shape purity, the slowdown *vector*
        is memoized by the resident kernels' shapes — new uids with
        recurring shapes (the steady-decode pattern) skip the model too.
        The clamp defends against custom models that would accelerate
        kernels.
        """
        if len(resident) == 1:
            for rs in resident.values():
                rs.contention = 1.0
            return
        kernels = [rs.kernel for rs in resident.values()]
        if self._contention_pure_in_shape and self.slowdown_memo:
            shape = tuple(
                (k.kind, k.occupancy, k.memory_intensity) for k in kernels
            )
            values = self._shape_cache.get(shape)
            if values is None:
                per_kernel = self.contention.slowdowns(kernels)
                values = tuple(per_kernel[k.uid] for k in kernels)
                self._shape_cache[shape] = values
                if len(self._shape_cache) > 8192:
                    # Unbounded shape diversity (e.g. a bursty prefill mix)
                    # must not leak; recurring shapes repopulate quickly.
                    self._shape_cache.clear()
        else:
            per_kernel = self.contention.slowdowns(kernels)
            values = [per_kernel.get(k.uid, 1.0) for k in kernels]
        for rs, slow in zip(resident.values(), values):
            rs.contention = 1.0 if slow < 1.0 else slow

    def refresh_rates(self) -> None:
        """Re-bank progress and recompute slowdowns at the current instant.

        The fault injector calls this at every fault-window boundary so that
        elapsed progress is banked at the *old* rates before the new
        inflation factors apply — the same piecewise integration contract the
        contention model relies on.
        """
        if self.halted:
            return
        self._bank_progress()
        self._reschedule()

    def _reschedule(self) -> None:
        """Recompute rates and (re)arm the single completion timer.

        Called once per engine callback that changed a resident set (and at
        fault-window boundaries via :meth:`refresh_rates`); no simulated
        time passes inside a callback, so intermediate rates would be
        overwritten before any :meth:`_bank_progress` read them.  Only a
        device whose resident set changed since its last stamp
        (``rates_epoch != resident_epoch``) is re-stamped; every active
        kernel then gets its stored contention times the fault inflation,
        in the same pass as the min-scan for the next completion instant.
        """
        inj = self.fault_injector
        stamp = self._stamp_contention
        next_dt: Optional[float] = None
        for gpu in self.gpus:
            if not gpu.resident:
                continue
            if gpu.rates_epoch != gpu.resident_epoch:
                gpu.rates_epoch = gpu.resident_epoch
                stamp(gpu.resident)
            for rs in gpu.active_local.values():
                slow = rs.contention
                if inj is not None:
                    slow *= inj.kernel_inflation(rs.kernel, rs.gpu_id)
                rs.slowdown = slow
                dt = rs.remaining * slow
                if next_dt is None or dt < next_dt:
                    next_dt = dt
        for crun in self._collectives.values():
            if crun.started_at < 0.0:
                continue
            slow = None
            for gid, rs in crun.members.items():
                member = rs.contention
                if inj is not None:
                    member *= inj.kernel_inflation(rs.kernel, gid)
                if slow is None or member > slow:
                    slow = member
            slow = 1.0 if slow is None else slow
            crun.slowdown = slow
            dt = crun.remaining * slow
            if next_dt is None or dt < next_dt:
                next_dt = dt
        if self._completion_timer is not None:
            self._completion_timer.cancel()
            self._completion_timer = None
        if next_dt is not None:
            self._completion_timer = self.engine.schedule(
                max(0.0, next_dt), self._on_completion_timer, priority=1
            )

    def _on_completion_timer(self) -> None:
        self._completion_timer = None
        if self.halted:
            return
        self._bank_progress()
        now = self.engine.now
        touched: set = set()

        due_locals = [
            rs
            for gpu in self.gpus
            for rs in gpu.active_local.values()
            if rs.remaining <= _EPS
        ]
        due_colls = [
            crun
            for crun in self._collectives.values()
            if crun.started_at >= 0.0 and crun.remaining <= _EPS
        ]
        for rs in due_locals:
            self._complete_local(rs, now)
            touched.add(rs.gpu_id)
        for crun in due_colls:
            self._complete_collective(crun, now)
            touched.update(crun.members.keys())

        # Pump in device order: an explicit order, not the set's hash-table
        # layout (which is ascending only while every id is below 8).
        for gpu_id in sorted(touched):
            self._pump(self.gpus[gpu_id])
        self._reschedule()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _release(self, rs: _RunState) -> None:
        gpu = self.gpus[rs.gpu_id]
        del gpu.resident[rs.kernel.uid]
        gpu.active_local.pop(rs.kernel.uid, None)
        gpu.used_occupancy = max(0.0, gpu.used_occupancy - rs.kernel.occupancy)
        gpu.resident_epoch += 1
        if rs.stream.running_kernel is rs.kernel:
            rs.stream.running_kernel = None

    def _complete_local(self, rs: _RunState, now: float) -> None:
        self._release(rs)
        self.kernels_completed += 1
        if self.trace is not None:
            self.trace.record_kernel(rs, end=now)
        for fn in self._completion_observers:
            fn(rs.kernel, now)

    def _complete_collective(self, crun: _CollectiveRun, now: float) -> None:
        del self._collectives[crun.op.uid]
        for rs in crun.members.values():
            self._release(rs)
            self.kernels_completed += 1
            if self.trace is not None:
                rs.stretched = crun.stretched  # members share the op timeline
                self.trace.record_kernel(rs, end=now)
        for fn in self._completion_observers:
            # Observers see one representative member per rank.
            for rs in crun.members.values():
                fn(rs.kernel, now)

    # ------------------------------------------------------------------
    # Crash semantics (cluster layer)
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Kill the node: drop every queued, ready, and resident command.

        Models a machine crash — in-flight kernels never complete, queued
        commands vanish, and all later :meth:`submit` calls are silently
        discarded.  After a halt the machine reports :meth:`all_idle` and an
        empty :meth:`stuck_summary`, so a shared engine can drain the rest of
        the cluster without this node tripping the quiescence check.
        Idempotent; there is no un-halt — recovery builds a fresh
        :class:`Machine` (a rebooted node has no residual device state).
        """
        self.halted = True
        if self._completion_timer is not None:
            self._completion_timer.cancel()
            self._completion_timer = None
        for gpu in self.gpus:
            for stream in gpu.streams:
                stream.queue.clear()
                stream.running_kernel = None
                stream.blocked_on_event = None
            gpu.ready.clear()
            gpu.resident.clear()
            gpu.active_local.clear()
            gpu.used_occupancy = 0.0
            gpu.resident_epoch += 1
        self._collectives.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def all_idle(self) -> bool:
        """True when every stream on every GPU is fully drained."""
        return all(g.all_idle() for g in self.gpus) and not self._collectives
