"""The cluster router: health-checked dispatch with failover.

The router fronts N replicated serving nodes.  Its state machine is small
and explicit:

* **Dispatch** — each arriving batch goes to its *affinity* node when one
  is recorded and healthy, otherwise to the least-loaded healthy node
  (load = in-flight batches this router sent there), random tie-break from
  the run's seeded RNG.  The router is colocated with node 0, so sends to
  node 0 are synchronous; sends to any other node pay the cross-node
  interconnect cost before the replica sees the batch.
* **Health sweep** — a periodic probe per node: a crashed node fails its
  probe, as does one inside a :class:`~repro.faults.plan.NetworkPartition`
  window.  ``unhealthy_after`` consecutive failures mark the node
  unhealthy (no new dispatches); ``readmit_after`` consecutive successes
  re-admit it.  Detection is therefore *late* by up to one sweep period —
  exactly the honest failure-detector latency a real deployment pays.
  Sweeps are armed only when the fault plan carries node-level faults; a
  fault-free cluster never probes (zero-cost convention) because health
  cannot change.
* **Failover** — when a probe flips a node unhealthy, its in-flight
  batches are handled by cause: a *crashed* node's work is re-dispatched
  to a healthy peer (charged one cross-node transfer and one unit of the
  batch's ``max_failovers`` budget); an *unreachable* (partitioned) node
  keeps executing, so by default its work is left to **drain** in place —
  its completions still count.  A batch whose budget is spent, or with no
  healthy peer available, is shed terminally.
* **Exactly-once** — the router owns every in-flight batch.  Replicas ask
  :meth:`accept_completion` before counting a completion; only the current
  owner's completion is accepted, so duplicated work after a failover can
  never double-complete a request.

Invariant the property tests pin: :attr:`unhealthy_dispatches` stays 0 —
the router never hands work to a node it has marked unhealthy.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.cluster.interconnect import CrossNodeInterconnect
from repro.cluster.node import ClusterNode
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ReplicaRecovery
from repro.obs.events import (
    NodeHealthChanged,
    RequestsFailedOver,
    RequestsShed,
)
from repro.serving.request import Batch

__all__ = ["Router"]


class _InFlight:
    """Router-side record of one dispatched, not-yet-terminal batch."""

    __slots__ = ("batch", "node", "generation", "hosted")

    def __init__(self, batch: Batch, node: int, incarnation: int) -> None:
        self.batch = batch
        self.node = node
        #: Bumped on every re-route; in-transfer deliveries carry a
        #: snapshot and abort when stale (the batch moved again mid-wire).
        self.generation = 0
        #: ``(node, incarnation)`` pairs that have hosted this batch — a
        #: still-alive partitioned host keeps executing, so failover must
        #: never bounce the batch back onto it.
        self.hosted: Set[Tuple[int, int]] = {(node, incarnation)}


class Router:
    """Health-checked dispatcher over a set of :class:`ClusterNode`\\ s."""

    #: Node the router is colocated with (dispatches there are free).
    home = 0

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        *,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[ReplicaRecovery] = None,
        interconnect: Optional[CrossNodeInterconnect] = None,
        rng: Optional[random.Random] = None,
        bus=None,
        affinity: Optional[Callable[[Batch], Hashable]] = None,
    ) -> None:
        if not nodes:
            raise ConfigError("router needs at least one node")
        self.nodes = list(nodes)
        self.engine = self.nodes[0].engine
        self.plan = fault_plan or FaultPlan()
        self.recovery = recovery or ReplicaRecovery(len(self.nodes))
        if self.recovery.num_nodes != len(self.nodes):
            raise ConfigError(
                f"recovery tracks {self.recovery.num_nodes} replicas but the "
                f"router has {len(self.nodes)}"
            )
        self.interconnect = interconnect or CrossNodeInterconnect()
        self.rng = rng or random.Random(0)
        self.bus = bus
        self.affinity = affinity
        self._affinity_map: Dict[Hashable, int] = {}
        self._inflight: Dict[int, _InFlight] = {}
        #: Keep sweeping at least until this simulated instant (the last
        #: arrival), so later dispatches see up-to-date health state.
        self.watch_until = 0.0
        #: Counters the invariants and reports read.
        self.dispatched_batches = 0
        self.completed_requests = 0
        self.shed_requests = 0
        self.rejected_completions = 0
        #: Must stay 0: dispatches sent to a node marked unhealthy.
        self.unhealthy_dispatches = 0
        #: Optional SLO fast-burn advisory (wired by the cluster when
        #: burn-rate policies are configured): while it returns True,
        #: dispatch skips affinity stickiness in favour of least-loaded
        #: spread, so a burning fleet rebalances instead of piling onto
        #: the sticky home.
        self.advisor: Optional[Callable[[], bool]] = None
        #: Dispatches where the advisory overrode an affinity hit.
        self.advisory_spreads = 0

    # ------------------------------------------------------------------
    # Introspection (gauges, reports)
    # ------------------------------------------------------------------
    def node_load(self, index: int) -> int:
        """In-flight batches this router currently attributes to ``index``."""
        return sum(1 for e in self._inflight.values() if e.node == index)

    def node_inflight_requests(self, index: int) -> int:
        """In-flight *requests* attributed to ``index`` (gauge reading)."""
        return sum(
            e.batch.size for e in self._inflight.values() if e.node == index
        )

    def open_batch_ids(self) -> List[int]:
        """Batches dispatched but not yet terminal (drain diagnostics)."""
        return sorted(self._inflight)

    def attach_advisor(self, advisor: Callable[[], bool]) -> None:
        """Wire the SLO fast-burn advisory into target selection."""
        self.advisor = advisor

    @property
    def healthy_count(self) -> int:
        return self.recovery.healthy_count

    # ------------------------------------------------------------------
    # Health sweep
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start the periodic health sweep when the plan can change health.

        With no node-level faults a replica can never fail a probe, so the
        sweep would be pure event traffic — it is skipped entirely, which
        is what keeps a fault-free cluster's event stream identical to the
        plain servers' (zero-cost convention).
        """
        if self.plan.node_faults:
            self._schedule_sweep()

    def _schedule_sweep(self) -> None:
        self.engine.schedule(
            self.recovery.config.health_check_period_us, self._sweep, priority=9
        )

    def _sweep(self) -> None:
        """Probe every node once; handle transitions; maybe reschedule."""
        now = self.engine.now
        for index, node in enumerate(self.nodes):
            if not node.alive:
                ok, reason = False, "crashed"
            elif self.plan.node_partitioned(index, now):
                ok, reason = False, "partitioned"
            else:
                ok, reason = True, "probe ok"
            transition = self.recovery.note_probe(index, ok, now, reason)
            if transition is None:
                continue
            if self.bus is not None:
                self.bus.publish(
                    NodeHealthChanged(
                        time_us=now,
                        node=index,
                        healthy=(transition == "readmit"),
                        reason=reason,
                    )
                )
            if transition == "mark-unhealthy":
                self._handle_unhealthy(index, now, crashed=not node.alive)
        # Keep probing while work is in flight or arrivals are still due;
        # once both are exhausted the run's outcome is sealed and further
        # sweeps would only keep an otherwise-idle engine alive.  An arrival
        # due at this very instant is dispatched after the sweep (priority
        # 10 after 9), so it still counts as due.
        if self._inflight or now <= self.watch_until:
            self._schedule_sweep()

    def _handle_unhealthy(self, index: int, now: float, *, crashed: bool) -> None:
        """Apply the replica-level recovery action to the node's in-flight work."""
        entries = [e for e in self._inflight.values() if e.node == index]
        if not entries:
            return
        if crashed or self.recovery.config.failover_on_unreachable:
            for entry in entries:
                self._failover(entry, now)
        else:
            # Unreachable but executing: drain in place.  The completion
            # gate accepts the partitioned owner's completions, so the
            # work is not lost — only new dispatches avoid the node.
            self.recovery.note_drain(
                index, now, [e.batch.batch_id for e in entries]
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, batch: Batch) -> None:
        """Route one arriving batch to a healthy replica (or shed it)."""
        now = self.engine.now
        target = self._pick_target(batch, exclude=frozenset())
        if target is None:
            self._shed(batch, now, where="no-healthy-replica")
            return
        entry = _InFlight(batch, target, self.nodes[target].incarnation)
        self._inflight[batch.batch_id] = entry
        self.dispatched_batches += 1
        self._send(entry, now, from_node=None)

    def _pick_target(
        self, batch: Batch, exclude: frozenset
    ) -> Optional[int]:
        """Affinity-preferred, else least-loaded healthy node (seeded ties)."""
        candidates = [
            i
            for i in range(len(self.nodes))
            if self.recovery.healthy(i) and i not in exclude
        ]
        if not candidates:
            return None
        key = None
        if self.affinity is not None:
            key = self.affinity(batch)
            home = self._affinity_map.get(key)
            if home in candidates:
                if not (self.advisor is not None and self.advisor()):
                    return home
                # Fast burn: ignore stickiness, fall through to spread.
                self.advisory_spreads += 1
        if len(candidates) == 1:
            # Skip the RNG draw entirely: a one-replica cluster must
            # consume no randomness (bit-identity with the plain server).
            target = candidates[0]
        else:
            loads = {i: self.node_load(i) for i in candidates}
            floor = min(loads.values())
            best = [i for i in candidates if loads[i] == floor]
            target = best[0] if len(best) == 1 else self.rng.choice(best)
        if key is not None:
            self._affinity_map[key] = target
        return target

    def _send(
        self, entry: _InFlight, now: float, *, from_node: Optional[int]
    ) -> None:
        """Deliver the entry's batch to its node, pricing cross-node hops."""
        target = entry.node
        if not self.recovery.healthy(target):  # pragma: no cover - invariant
            self.unhealthy_dispatches += 1
        source = self.home if from_node is None else from_node
        if source == target:
            self.nodes[target].submit(entry.batch)
            return
        delay = self.interconnect.batch_transfer_us(entry.batch)
        generation = entry.generation
        batch_id = entry.batch.batch_id

        def _deliver() -> None:
            live = self._inflight.get(batch_id)
            # Stale wire copy: the batch was re-routed or went terminal
            # while in transfer.  Drop it — the new owner has its own copy.
            if live is not entry or entry.generation != generation:
                return
            self.nodes[entry.node].submit(entry.batch)

        self.engine.schedule(delay, _deliver, priority=10)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _failover(self, entry: _InFlight, now: float) -> None:
        """Move one batch off its failed node, within its retry budget."""
        batch = entry.batch
        failed = entry.node
        if not self.recovery.allow_failover(batch.batch_id):
            self._shed(batch, now, where="failover-exhausted")
            self.recovery.note_shed(
                failed, now, batch.batch_id,
                f"failover budget ({self.recovery.config.max_failovers}) "
                "exhausted",
                batch.size,
            )
            return
        exclude = frozenset(
            node
            for node, incarnation in entry.hosted
            if self.nodes[node].incarnation == incarnation
        )
        target = self._pick_target(batch, exclude=exclude)
        if target is None:
            self._shed(batch, now, where="no-healthy-replica")
            self.recovery.note_shed(
                failed, now, batch.batch_id,
                "no healthy replica to fail over to", batch.size,
            )
            return
        entry.node = target
        entry.generation += 1
        entry.hosted.add((target, self.nodes[target].incarnation))
        attempt = self.recovery.failover_attempts(batch.batch_id)
        self.recovery.note_failover(failed, now, batch.batch_id, target)
        if self.bus is not None:
            self.bus.publish(
                RequestsFailedOver(
                    time_us=now,
                    batch_id=batch.batch_id,
                    rids=tuple(r.rid for r in batch.requests),
                    from_node=failed,
                    to_node=target,
                    attempt=attempt,
                )
            )
        self._send(entry, now, from_node=failed)

    # ------------------------------------------------------------------
    # Terminal paths
    # ------------------------------------------------------------------
    def _shed(self, batch: Batch, now: float, *, where: str) -> None:
        """Terminally drop a batch (liveness over completeness)."""
        self._inflight.pop(batch.batch_id, None)
        batch.shed()
        self.shed_requests += batch.size
        if self.bus is not None:
            self.bus.publish(
                RequestsShed.from_requests(
                    batch.requests, now, batch_id=batch.batch_id, where=where
                )
            )

    def accept_completion(self, node_index: int, batch: Batch, time: float) -> bool:
        """Completion gate: only the batch's current owner may complete it."""
        entry = self._inflight.get(batch.batch_id)
        if entry is None or entry.node != node_index:
            self.rejected_completions += 1
            return False
        del self._inflight[batch.batch_id]
        self.completed_requests += batch.size
        return True
