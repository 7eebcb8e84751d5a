"""Per-layer host-time tracing, wrapped around the library from outside.

:class:`Tracer` replaces public methods of each layer's classes with
wrappers that record one span per call: name, parent span, start and end
in host CPU nanoseconds.  It must be installed *before* the program builds
its objects, so callbacks the program pre-binds at construction (pump
closures, completion timers, host callbacks) resolve to the wrappers too.
Spans stay in memory while the run executes and are written out at the
end; nothing inside the program is edited.

A layer's self time is its spans' durations minus the part of each span
its wrapped children cover (:func:`self_times`).  Time in code no wrapper
covers lands in the nearest wrapped ancestor — for event callbacks the
benchmark does not wrap, that is ``Engine.run``.

Besides spans the tracer captures every instance of a few classes so their
own counters can be read after the run and cross-checked against the
wrapped call counts (:meth:`Tracer.instances`).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["LAYERS", "CAPTURED", "Tracer", "self_times"]

#: ``(layer, module, class, methods)``: the wrapped public surface of each
#: layer.  A method is wrapped on the named class and on every loaded
#: subclass that overrides it.  A few private methods are listed where they
#: are the layer's entry point from the event loop (pumps, timers, server
#: callbacks); without them their time would be charged to ``Engine.run``.
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "Engine",
     ("run", "schedule", "schedule_at", "schedule_many", "heartbeat")),
    ("sim.gpu", "repro.sim.gpu", "Machine",
     ("submit", "refresh_rates", "_reschedule", "_run_pump",
      "_on_completion_timer", "halt")),
    ("sim.host", "repro.sim.host", "Host",
     ("launch_kernel", "record_event", "wait_event", "when_event",
      "when_all_events")),
    ("sim.contention", "repro.sim.contention", "ContentionModel",
     ("slowdowns",)),
    ("sim.timeline", "repro.sim.timeline", "TimelineExecutor",
     ("fast_forward",)),
    ("core.runtime", "repro.core.runtime", "LigerRuntime",
     ("enqueue", "maybe_kick", "_advance", "_next_round", "_launch_round")),
    ("core.plan_cache", "repro.core.plan_cache", "SchedulePlanCache",
     ("fingerprint", "get", "put", "replay")),
    ("core.scheduler", "repro.core.scheduler", "LigerScheduler",
     ("enqueue", "take_drained", "plan_round", "plan_swept")),
    ("core.policy", "repro.core.policy", "SchedulingPolicy",
     ("fingerprint", "resource_class", "collect_primary", "blocks",
      "pack_secondary", "validate_round")),
    ("core.decomposition", "repro.core.decomposition", "DecompositionPlanner",
     ("can_decompose", "split_to_fit", "profile_divisions")),
    ("core.assembly", "repro.core.assembly", "FunctionAssembler",
     ("assemble",)),
    ("profiling.profiler", "repro.profiling.profiler", "OpProfiler",
     ("duration", "occupancy", "memory_intensity", "measure_solo")),
    ("parallel.strategy", "repro.parallel.base", "ParallelStrategy",
     ("submit_batch", "register_batch", "add_pending", "close_batch",
      "_on_kernel_complete", "_finish_batch")),
    ("serving.session", "repro.serving.session", "ServingSession",
     ("submit", "notify_complete")),
    ("serving.session", "repro.serving.server", "Server",
     ("_on_arrival", "_on_batch_complete")),
    ("serving.session", "repro.serving.generation", "ContinuousBatchingServer",
     ("_on_arrival", "_on_batch_complete", "_maybe_launch_iteration")),
    ("serving.session", "repro.serving.lifecycle", "LifecycleServer",
     ("_on_arrival", "_on_batch_complete", "_maybe_submit_prefill",
      "_maybe_submit_decode")),
    ("cluster.router", "repro.cluster.router", "Router",
     ("arm", "dispatch", "accept_completion", "_sweep", "_failover")),
    ("cluster.router", "repro.cluster.node", "ClusterNode",
     ("submit", "crash", "recover")),
    ("obs.telemetry", "repro.obs.telemetry", "TimeSeriesStore", ("pump",)),
    ("obs.telemetry", "repro.obs.metrics", "MetricsRegistry",
     ("sample_gauges",)),
    ("obs.telemetry", "repro.obs.slo", "SloEngine", ("evaluate",)),
    ("obs.telemetry", "repro.obs.events", "EventBus", ("publish",)),
)

#: Modules defining subclasses of wrapped classes outside the modules above.
PRELOAD: Tuple[str, ...] = ("repro.parallel.interleaved",)

#: Classes whose instances are captured at construction, by short name.
CAPTURED: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "Engine"),
    ("repro.sim.host", "Host"),
    ("repro.sim.timeline", "TimelineExecutor"),
    ("repro.core.runtime", "LigerRuntime"),
    ("repro.core.plan_cache", "SchedulePlanCache"),
    ("repro.core.assembly", "FunctionAssembler"),
    ("repro.cluster.router", "Router"),
)


def self_times(
    parent: Sequence[int], start: Sequence[int], end: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part its direct children cover.

    Spans must be listed in start order (the order the tracer opens them),
    so each parent's children arrive sorted; overlapping children are
    counted once and children are clipped to their parent.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)  # how far each span's children already cover
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Records spans for every wrapped call while :attr:`active`."""

    def __init__(self, clock: Callable[[], int] = time.process_time_ns) -> None:
        self.clock = clock
        self.active = False
        self.names: List[Tuple[str, str]] = []  # (layer, qualified method)
        self.parent = array("q")
        self.name_ids = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []
        self._instances: Dict[str, list] = {}
        #: Event handles created through the engine's scheduling methods and
        #: live handles cancelled, while active (the events cross-check).
        self.handles_created = 0
        self.handles_cancelled = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _name_id(self, layer: str, qualname: str) -> int:
        self.names.append((layer, qualname))
        return len(self.names) - 1

    def wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        """``fn`` with one span per call recorded under ``layer``."""
        nid = self._name_id(layer, qualname)
        clock = self.clock
        stack = self._stack
        parents, names, starts, ends = self.parent, self.name_ids, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, cls: type, attr: str, new: object) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self, layers=LAYERS, captured=CAPTURED) -> None:
        """Patch every layer method and instance-capturing constructor.

        Every listed module is imported first, so subclasses defined in
        another listed module (a cluster replica's server) are found.
        """
        for module in PRELOAD + tuple(module for _, module, _, _ in layers):
            importlib.import_module(module)
        for layer, module, cls_name, methods in layers:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in [base, *_subclasses(base)]:
                for method in methods:
                    if method in cls.__dict__:
                        fn = cls.__dict__[method]
                        self._patch(cls, method, self.wrap(
                            layer, f"{cls.__name__}.{method}", fn))
        for module, cls_name in captured:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, "__init__", self._capturing(cls.__init__, cls_name))
        self._count_engine_handles()

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def _capturing(self, init: Callable, key: str) -> Callable:
        bucket = self._instances.setdefault(key, [])

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        return __init__

    def instances(self, key: str) -> list:
        """Every captured instance of class ``key``, in construction order."""
        return list(self._instances.get(key, ()))

    def _count_engine_handles(self) -> None:
        """Tally handles the engine's public scheduling calls create and the
        live ones cancelled, around the span wrappers already installed."""
        from repro.sim.engine import Engine, EventHandle

        for method in ("schedule", "schedule_at", "schedule_many"):
            inner = Engine.__dict__[method]
            many = method == "schedule_many"

            def counted(*args, _inner=inner, _many=many, **kwargs):
                result = _inner(*args, **kwargs)
                if self.active:
                    self.handles_created += len(result) if _many else 1
                return result

            self._patch(Engine, method, functools.wraps(inner)(counted))

        cancel = EventHandle.__dict__["cancel"]

        def counted_cancel(handle):
            if self.active and not handle.cancelled:
                self.handles_cancelled += 1
            cancel(handle)

        self._patch(EventHandle, "cancel", functools.wraps(cancel)(counted_cancel))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def per_name(self) -> List[Tuple[int, int]]:
        """``(calls, self_ns)`` per registered name id."""
        out = [[0, 0] for _ in self.names]
        for nid, own in zip(self.name_ids, self_times(self.parent, self.start, self.end)):
            row = out[nid]
            row[0] += 1
            row[1] += own
        return [tuple(row) for row in out]

    def save(self, path: str) -> None:
        """Write the raw spans (parent links, names, ns times) as ``.npz``."""
        import numpy as np

        np.savez(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name_ids, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            names=np.array([f"{layer}:{q}" for layer, q in self.names]),
        )


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
