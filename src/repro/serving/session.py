"""The serving-session chassis shared by all four servers.

Three subsystems grew around the serving loop — faults/recovery, overload
protection, and observability — and each server used to wire them by hand:
engine/machine/host construction, strategy binding, recovery attachment,
gauge registration, the arm sequence, and the drain-or-deadlock check were
duplicated across :class:`~repro.serving.server.Server` and
:class:`~repro.serving.lifecycle.LifecycleServer`, while the generation
servers had none of it.  A :class:`ServingSession` owns all of that once:

* **construction** — ``Engine``/``Trace``/``Machine``/``Host``, strategy
  binding (including the bind-time memory-tracking mode), and a
  :class:`~repro.serving.metrics.ServingMetrics`;
* **configuration** — one :class:`ServingConfig` bundles the cross-cutting
  knobs (``fault_plan``/``resilience``/``overload``/``observability``/
  ``contention``/``record_trace``); servers build it from their keyword
  arguments;
* **the submit path** — :meth:`ServingSession.submit` hands a batch to the
  :class:`~repro.serving.overload.OverloadController` when the config
  carries ``overload``, and otherwise straight to the dispatch step, which
  stamps the hand-off, publishes it, and submits to the recovery layer or
  the strategy (``submit → [controller] → dispatch → recovery | strategy``);
* **the arm sequence** (recovery → overload → observability) and the
  drain-or-:class:`~repro.errors.DeadlockError` check with open-batch
  attribution.

The zero-cost convention survives the chassis: with an empty
:class:`ServingConfig` a submitted batch is stamped and handed to the
strategy, nothing is published, no heartbeat is armed, and the timeline is
bit-identical to the pre-chassis servers (pinned by the golden
fingerprints in ``tests/golden/serving_traces.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import ConfigError, DeadlockError
from repro.models.partition import check_placement
from repro.obs.events import (
    BatchDispatched,
    RequestsAdmitted,
    RequestsShed,
    RequestsTimedOut,
)
from repro.obs.observability import Observability
from repro.serving.metrics import ServingMetrics
from repro.serving.overload import (
    OverloadConfig,
    OverloadController,
    OverloadReport,
    admission_victims,
)
from repro.serving.request import Batch, RequestState
from repro.sim.contention import ContentionModel, default_contention_for
from repro.sim.engine import Engine
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.memory import NodeMemoryModel
from repro.sim.tracing import Trace

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.faults.plan import FaultPlan
    from repro.faults.resilience import (
        RecoveryManager,
        ResilienceConfig,
        ResilienceReport,
    )
    from repro.hw.devices import NodeSpec
    from repro.models.specs import ModelSpec
    from repro.parallel.base import ParallelStrategy

__all__ = ["ServingConfig", "RunResult", "ServingSession"]


@dataclass(frozen=True)
class ServingConfig:
    """Cross-cutting serving configuration, bundled.

    An *empty* config (the default) arms nothing: the session it builds is
    bit-identical to a server without any of the subsystems.  Each field
    maps to the server keyword argument of the same name.
    """

    #: Contention model for the machine; ``None`` selects the node default.
    contention: Optional[ContentionModel] = None
    #: Record the kernel timeline (:class:`~repro.sim.tracing.Trace`).
    record_trace: bool = False
    #: Inject these faults and arm the recovery layer.
    fault_plan: Optional["FaultPlan"] = None
    #: Recovery-policy knobs; implies the recovery layer even without faults.
    resilience: Optional["ResilienceConfig"] = None
    #: Admission control / deadlines / KV accounting / backpressure.
    overload: Optional[OverloadConfig] = None
    #: Event bus + metrics registry + span builder for the run.
    observability: Optional[Observability] = None

    @property
    def wants_recovery(self) -> bool:
        return self.fault_plan is not None or self.resilience is not None


@dataclass
class RunResult:
    """Common base of every serving result.

    The cross-cutting subsystem summaries ride here so all four servers
    report them uniformly; each stays ``None`` unless its subsystem was
    enabled for the run.
    """

    strategy: str
    model: str
    node: str
    num_requests: int
    wall_events: int = field(default=0, kw_only=True)
    #: Recovery-layer summary; ``None`` unless faults/resilience were enabled.
    resilience: Optional["ResilienceReport"] = field(default=None, kw_only=True)
    #: Overload-layer summary; ``None`` unless admission control was enabled.
    overload: Optional[OverloadReport] = field(default=None, kw_only=True)
    #: The observability object the run was served with (bus + registry +
    #: spans); ``None`` unless one was passed in.
    observability: Optional[Observability] = field(default=None, kw_only=True)


# ----------------------------------------------------------------------
# The chassis
# ----------------------------------------------------------------------
class ServingSession:
    """Owns what every server used to duplicate.

    Parameters
    ----------
    config:
        The cross-cutting :class:`ServingConfig`.
    check_memory:
        Validate model placement against the node before serving.
    track_memory:
        Bind-time memory-tracking mode for the strategy (``None`` keeps the
        strategy's own setting; the lifecycle/generation servers pass
        ``False`` because they account memory at sequence granularity).
    complete_callback:
        Registered as the strategy's (and fallback's) batch-completion
        callback.
    shed_callback:
        Invoked when the recovery layer drops a batch, so servers with
        per-batch state can clean it up.  Without one, the recovery layer
        stamps shed batches into the session's
        :class:`~repro.serving.metrics.ServingMetrics` itself.
    engine:
        Share an externally owned :class:`~repro.sim.engine.Engine` instead
        of creating a private one.  The cluster layer passes a single engine
        to every replica so all nodes advance on one simulated clock; the
        caller then owns ``engine.run()``.
    """

    def __init__(
        self,
        model: "ModelSpec",
        node: "NodeSpec",
        strategy: "ParallelStrategy",
        *,
        config: ServingConfig,
        check_memory: bool = True,
        track_memory: Optional[bool] = None,
        complete_callback: Callable[[Batch, float], None],
        shed_callback: Optional[Callable[[Batch], None]] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        if strategy.model is not model or strategy.node is not node:
            raise ConfigError("strategy was built for a different model/node")
        if check_memory:
            check_placement(model, node)
        self.model = model
        self.node = node
        self.strategy = strategy
        self.config = config
        self.engine = engine if engine is not None else Engine()
        self.trace = Trace() if config.record_trace else None
        self.machine = Machine(
            node,
            self.engine,
            contention=config.contention or default_contention_for(node.name),
            trace=self.trace,
        )
        self.host = Host(self.machine)
        self.metrics = ServingMetrics()
        self.obs = config.observability
        #: The event bus, or ``None`` — every publish site is guarded by
        #: ``if bus is not None`` so an unobserved session allocates nothing
        #: (the zero-cost convention).
        self.bus = self.obs.bus if self.obs is not None else None
        strategy.bind(self.machine, self.host, track_memory=track_memory)
        strategy.on_batch_complete(complete_callback)

        self.recovery: Optional["RecoveryManager"] = None
        if config.wants_recovery:
            # Imported lazily: repro.faults pulls in the parallel
            # strategies, which import the serving layer for type context.
            from repro.faults.resilience import attach_recovery

            self.recovery = attach_recovery(
                model,
                node,
                strategy,
                self.machine,
                self.host,
                fault_plan=config.fault_plan,
                config=config.resilience,
                metrics=self.metrics if shed_callback is None else None,
                complete_callback=complete_callback,
                bus=self.bus,
            )

        #: Requests already dispatched once; a later dispatch of any of
        #: them publishes ``first=False`` so queue-wait derivations skip it.
        self._dispatched_rids: set = set()
        self._shed_callback = shed_callback
        #: Admission control in front of dispatch, iff ``config.overload``.
        self.overload_ctl: Optional[OverloadController] = None
        if config.overload is not None:
            self.overload_ctl = OverloadController(
                config.overload,
                model,
                node,
                self.engine,
                self.metrics,
                self._dispatch,
                bus=self.bus,
            )
        if self.recovery is not None:
            self.recovery.on_shed = self._on_recovery_shed
            if self.overload_ctl is not None:
                self.overload_ctl.attach_recovery(self.recovery)

        if self.obs is not None:
            if config.fault_plan is not None:
                self.obs.note_fault_plan(config.fault_plan)
            self._register_overload_gauges(self.obs)
            self._register_perf_gauges(self.obs)
            # SLO burn-rate advisory: only exists when policies were
            # explicitly configured, so a default Observability keeps the
            # obs-on bit-identity contract.
            advisor = self.obs.fast_burn_advisor()
            if advisor is not None and self.overload_ctl is not None:
                self.overload_ctl.attach_advisor(advisor)

    def _on_recovery_shed(self, batch: Batch) -> None:
        """The recovery layer dropped ``batch``: controller first, then server."""
        if self.overload_ctl is not None:
            self.overload_ctl.on_downstream_shed(batch)
        if self._shed_callback is not None:
            self._shed_callback(batch)

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def add_gauge(self, name: str, help: str, fn: Callable[[], float]) -> None:
        """Register a live gauge; no-op when observability is off."""
        if self.obs is not None:
            self.obs.register_gauge(name, help, fn)

    def _register_overload_gauges(self, obs: Observability) -> None:
        """Expose live pipeline readings for the sampling heartbeat."""
        ctl = self.overload_ctl
        if ctl is None:
            return
        obs.register_gauge(
            "repro_pending_queue_requests",
            "Requests waiting in the bounded pending queue.",
            lambda: float(ctl.queue_depth),
        )
        obs.register_gauge(
            "repro_inflight_batches",
            "Batches staged or dispatched downstream.",
            lambda: float(ctl.inflight_batches),
        )
        if ctl.accountant is not None:
            acct = ctl.accountant
            obs.register_gauge(
                "repro_kv_used_bytes",
                "Per-GPU KV bytes charged by in-flight batches.",
                lambda: float(acct.used),
            )

    #: The ``perf`` section of the Prometheus export: hot-path cache
    #: statistics, published only by strategies that expose
    #: ``perf_counters()`` (duck-typed — the session stays strategy-agnostic).
    _PERF_GAUGE_HELP = {
        "plan_cache_hits": "Schedule-plan cache hits (rounds replayed).",
        "plan_cache_misses": "Schedule-plan cache misses (Algorithm 1 ran).",
        "plan_cache_evictions": "Schedule-plan cache LRU evictions.",
        "plan_cache_uncacheable": "Planning calls with unfingerprintable input.",
        "plan_cache_entries": "Live entries in the schedule-plan cache.",
        "plan_build_seconds": "Host seconds spent planning on cache misses.",
        "assembly_cache_hits": "Function-assembly cache hits (rebinds).",
        "assembly_cache_misses": "Function-assembly cache misses (rebuilds).",
        "assembly_cache_evictions": "Function-assembly cache LRU evictions.",
        "assembly_build_seconds": "Host seconds spent assembling on misses.",
        "timeline_builds": "Compiled-timeline windows attempted.",
        "timeline_replays": "Windows committed as one batched advance.",
        "timeline_bails": "Window compilations aborted to the interpreted path.",
        "batched_events": "Engine events consumed via batched window replay.",
    }

    def _register_perf_gauges(self, obs: Observability) -> None:
        """Expose plan/assembly cache counters as ``repro_perf_*`` gauges."""
        counters = getattr(self.strategy, "perf_counters", None)
        if counters is None:
            return

        def _reader(key: str) -> Callable[[], float]:
            return lambda: float(counters().get(key, 0.0))

        gauges = dict(self._PERF_GAUGE_HELP)
        # Strategy-specific gauges with dynamic keys (e.g. the per-policy
        # plan-cache split, whose names embed the scheduling-policy id).
        extra = getattr(self.strategy, "perf_gauge_help", None)
        if extra is not None:
            gauges.update(extra())
        for key, help_text in gauges.items():
            obs.register_gauge(f"repro_perf_{key}", help_text, _reader(key))

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def submit(self, batch: Batch) -> None:
        """Admit ``batch`` through the overload controller, or dispatch it."""
        if self.overload_ctl is not None:
            self.overload_ctl.on_arrival(batch)
        else:
            self._dispatch(batch)

    def _dispatch(self, batch: Batch) -> None:
        """Stamp the hand-off, publish it, and submit downstream.

        Stamping :attr:`~repro.serving.request.Request.dispatched_at` is
        what makes pending time exact.  The recovery layer, when armed,
        owns the hand-off to whichever strategy is active.
        """
        now = self.engine.now
        batch.mark_dispatched(now)
        if self.bus is not None:
            rids = {r.rid for r in batch.requests}
            first = rids.isdisjoint(self._dispatched_rids)
            self._dispatched_rids |= rids
            self.bus.publish(BatchDispatched.from_batch(batch, now, first=first))
        if self.recovery is not None:
            self.recovery.submit(batch)
        else:
            self.strategy.submit_batch(batch)

    def notify_complete(self, batch: Batch, time: float) -> None:
        """Release the batch's admission charges once it retired downstream."""
        if self.overload_ctl is not None:
            self.overload_ctl.on_complete(batch, time)

    def arm(self) -> None:
        """The arm sequence: recovery → overload → observability."""
        if self.recovery is not None:
            self.recovery.arm()
        if self.overload_ctl is not None:
            self.overload_ctl.arm()
        if self.obs is not None:
            self.obs.arm(self.engine)

    def run_machine(self) -> None:
        """Arm every subsystem and drive the simulation to quiescence."""
        self.arm()
        self.machine.run()

    # ------------------------------------------------------------------
    # Drain check
    # ------------------------------------------------------------------
    def open_batch_ids(self) -> List[int]:
        """Ids of batches submitted but never completed (diagnostics)."""
        if self.recovery is not None:
            return self.recovery.open_batch_ids()
        return self.strategy.open_batch_ids()

    def check_drained(
        self,
        *,
        expected: int,
        completed: int,
        shed: int = 0,
        timed_out: int = 0,
        open_ids: Optional[List[int]] = None,
    ) -> None:
        """Raise :class:`~repro.errors.DeadlockError` unless every request
        reached a terminal state — a simulation that returns without
        resolving its work is a wedge, not a configuration mistake, so the
        error names the batches that never completed."""
        if completed + shed + timed_out == expected:
            return
        if open_ids is None:
            open_ids = self.open_batch_ids()
        raise DeadlockError(
            f"served {completed} of {expected} requests"
            f"{f' ({shed} shed)' if shed else ''}"
            f"{f' ({timed_out} timed out)' if timed_out else ''} — "
            f"batches never completed: "
            f"{open_ids if open_ids else 'none open (lost)'}"
        )

    # ------------------------------------------------------------------
    # Result plumbing
    # ------------------------------------------------------------------
    def finalize_resilience(self) -> Optional["ResilienceReport"]:
        """The recovery layer's end-of-run report, or ``None`` if unarmed."""
        return self.recovery.finalize() if self.recovery is not None else None

    def overload_report(self) -> Optional[OverloadReport]:
        """The overload controller's report, or ``None`` if unarmed."""
        return self.overload_ctl.report if self.overload_ctl is not None else None


# ----------------------------------------------------------------------
# The job-granular server base
# ----------------------------------------------------------------------
class _RequestServerBase:
    """What the static, continuous and lifecycle servers share.

    These servers queue their own jobs and feed the session one iteration
    (or prefill) batch at a time, so admission, deadlines and KV memory
    live at job granularity here rather than in the session's
    :class:`~repro.serving.overload.OverloadController`.  The base owns
    the session wiring, the bounded admission queue, terminal bookkeeping
    into :class:`~repro.serving.metrics.ServingMetrics`, the retry-backoff
    requeue and the common result fields.  Subclasses keep their arrival,
    launch and completion handlers on themselves.
    """

    #: Suffix of the result's strategy label (``<strategy>+<discipline>``).
    discipline: str

    def __init__(
        self,
        model,
        node,
        strategy,
        *,
        contention: Optional[ContentionModel] = None,
        record_trace: bool = False,
        check_memory: bool = True,
        fault_plan=None,
        resilience=None,
        overload: Optional[OverloadConfig] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        # The strategy's per-batch accounting would re-reserve the KV cache
        # for every iteration; these servers hold memory per sequence or
        # group, so they own the memory model instead (track_memory=False
        # at bind time).  ``overload`` stays here: it governs the job queue,
        # so the session builds no controller.
        self.session = ServingSession(
            model,
            node,
            strategy,
            config=ServingConfig(
                contention=contention,
                record_trace=record_trace,
                fault_plan=fault_plan,
                resilience=resilience,
                observability=observability,
            ),
            check_memory=check_memory,
            track_memory=False,
            complete_callback=self._on_batch_complete,
            shed_callback=self._on_shed,
        )
        s = self.session
        self.model = model
        self.node = node
        self.strategy = strategy
        self.engine = s.engine
        self.trace = s.trace
        self.machine = s.machine
        self.host = s.host
        self.metrics = s.metrics
        self.obs = s.obs
        self.bus = s.bus
        self.recovery = s.recovery
        self.memory = NodeMemoryModel(model, node)
        #: Tokens served: submitted iteration tokens on the generation
        #: servers, decoded tokens on the lifecycle server.
        self.total_tokens = 0
        self.overload = overload
        self._admitted = 0
        self._peak_pending = 0

    # Subclasses map batch completions back to job progress.
    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        raise NotImplementedError

    # Subclasses restore their scheduling state when the recovery layer
    # drops a batch (only reachable when faults/resilience are armed).
    def _on_shed(self, batch: Batch) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _make_room(self, queue: list, job, waiting: Optional[list] = None) -> bool:
        """Apply :func:`~repro.serving.overload.admission_victims` to a queue
        of single jobs for one arriving ``job``.

        ``waiting`` is the part of ``queue`` the bound counts (all of it by
        default).  Victims leave ``queue`` and are shed; then ``job`` is
        shed if it still does not fit.  Returns whether it was admitted.
        """
        victims, admitted = admission_victims(
            self.overload, queue if waiting is None else waiting, 1
        )
        for victim in victims:
            queue.remove(victim)
            self._terminate(victim, RequestState.SHED, "admission")
        if not admitted:
            self._terminate(job, RequestState.SHED, "admission")
        return admitted

    def _note_admitted(self, job) -> None:
        self._admitted += 1
        if self.bus is not None:
            self.bus.publish(
                RequestsAdmitted(
                    time_us=self.engine.now,
                    batch_id=-1,
                    rids=(job.rid,),
                    arrivals_us=(job.arrival,),
                )
            )

    # ------------------------------------------------------------------
    # Terminal bookkeeping (every job ends in exactly one terminal state)
    # ------------------------------------------------------------------
    def _completion_record(self, job):
        """What :class:`~repro.serving.metrics.ServingMetrics` records for a
        completed ``job``; the job itself unless a server overrides it."""
        return job

    def _finish(self, job, time: float) -> None:
        job.completion = time
        job.state = RequestState.COMPLETED
        self.metrics.record([self._completion_record(job)])

    def _terminate(self, job, state: RequestState, where: str) -> None:
        """End ``job`` unserved: ``state`` is ``SHED`` or ``TIMED_OUT``."""
        job.state = state
        shed = state is RequestState.SHED
        (self.metrics.note_shed if shed else self.metrics.note_timed_out)([job])
        if self.bus is not None:
            event = RequestsShed if shed else RequestsTimedOut
            self.bus.publish(
                event.from_requests([job], self.engine.now, batch_id=-1, where=where)
            )

    def _requeue_after_backoff(
        self, members: list, busy: set, relaunch: Callable[[], None]
    ) -> None:
        """Return a retry-exhausted batch's members to scheduling.

        They keep their KV reservations (the retry re-decodes the same
        context) but stay ``busy`` for one recovery backoff: freeing them at
        once would let the launch loop rebuild the same batch and shed it
        again without simulated time advancing.
        """
        assert self.recovery is not None

        def _requeue() -> None:
            for job in members:
                busy.discard(job.rid)
            relaunch()

        self.engine.schedule(
            self.recovery.config.retry_backoff_us, _requeue, priority=10
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _check_drained(self, expected: int, open_ids=None) -> None:
        m = self.metrics
        self.session.check_drained(
            expected=expected,
            completed=m.num_completed,
            shed=m.shed_requests,
            timed_out=m.timed_out_requests,
            open_ids=open_ids,
        )

    def _overload_report(self) -> Optional[OverloadReport]:
        """Summarise this server's job-granularity admission layer."""
        if self.overload is None:
            return None
        return OverloadReport(
            policy=self.overload.policy.value,
            admitted_requests=self._admitted,
            shed_requests=self.metrics.shed_requests,
            timed_out_requests=self.metrics.timed_out_requests,
            preempted_batches=self.metrics.preemptions,
            peak_pending_requests=self._peak_pending,
        )

    def _result_fields(self) -> dict:
        """The :class:`RunResult` fields every job-granular server fills."""
        return dict(
            strategy=f"{self.strategy.name}+{self.discipline}",
            model=self.model.name,
            node=self.node.name,
            wall_events=self.engine.events_processed,
            resilience=self.session.finalize_resilience(),
            overload=self._overload_report(),
            observability=self.obs,
        )
