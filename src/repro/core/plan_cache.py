"""Schedule-plan memoization: replay Algorithm 1 for recurring inputs.

Under steady-state serving — continuous batching decoding token after token —
the scheduler sees the *same* input over and over: a processing list of
identically-shaped FuncVecs, the same contention scales, the same
decomposition config.  Algorithm 1 is deterministic, so its output is a pure
function of that input.  :class:`SchedulePlanCache` exploits this:

* **Fingerprint** — a hashable key over everything the planner reads: each
  processing-list entry's consumption signature
  (:attr:`~repro.core.assembly.FuncVec.sig` — assembly-cache content key +
  pop count + pushed-back remainder tags), the anticipator's
  ``fingerprint()`` (contention scales, §3.5), the decomposition division
  factor (§3.6), the packing policy, and the link health the round's
  collectives are issued at.  Anything unfingerprintable (a
  FuncVec built without a content key, an anticipator without
  ``fingerprint``) makes the call uncacheable — counted, never guessed.
* **Record** — on a miss the scheduler plans normally while recording its
  secondary-subset actions (pops and splits); the entry stores those
  actions, the round's window/fill floats, and one *kernel prototype* per
  subset position snapshotted from the kernels the normal
  :func:`~repro.parallel.base.instantiate_op` path built.
* **Replay** — on a hit the cached actions are applied to the live
  processing list (real pops, so batch draining and accounting are
  untouched) and kernels are rebuilt from the prototypes with fresh uids,
  skipping the planner, the decomposer, and the profiler entirely.

The contract is **bit-identity**: a replayed round launches kernels with the
same names, durations, footprints, and ordering as planning from scratch
would have — the golden-trace suite asserts cache-on and cache-off timelines
hash identically.  Floats are never recomputed on the hit path (window,
fill, durations are stored), so there is no room for ulp drift.

Invalidation is structural, not temporal: contention scales live *in* the
key (an :class:`~repro.core.contention.AdaptiveAnticipator` that learned a
new factor simply stops matching).  So does the interconnect's link health:
a collective's duration is costed when it is issued, so a round recorded
under a link degradation never replays on healthy links or the reverse.
Every other fault slowdown is applied by the machine at execution time,
outside anything this cache stores.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.assembly import KernelFunc, rebind
from repro.core.scheduler import LigerScheduler, Round
from repro.sim.kernel import (
    CollectiveKind,
    CollectiveOp,
    Kernel,
    KernelKind,
    _collective_ids,
    _kernel_ids,
)

__all__ = ["SchedulePlanCache"]


class _PlanEntry:
    """One memoized round: the decisions plus per-position kernel prototypes."""

    __slots__ = (
        "n_primary",
        "primary_kind",
        "primary_class",
        "window",
        "fill",
        "actions",
        "protos0",
        "protos1",
    )

    def __init__(
        self,
        n_primary,
        primary_kind,
        primary_class,
        window,
        fill,
        actions,
        protos0,
        protos1,
    ) -> None:
        self.n_primary = n_primary
        self.primary_kind = primary_kind
        self.primary_class = primary_class
        self.window = window
        self.fill = fill
        self.actions = actions
        self.protos0 = protos0
        self.protos1 = protos1


def _proto(kernels: Dict[int, Kernel]) -> Tuple:
    """Snapshot one instantiated op's profiler-derived floats.

    Everything else a replayed kernel needs (names, kind, layer, batch id)
    comes from the KernelFunc being replayed; only the values that would
    cost a profiler/cost-model call are stored.
    """
    kern = next(iter(kernels.values()))
    coll = kern.collective
    kind = None if coll is None else coll.kind
    return (kind, kern.duration, kern.occupancy, kern.memory_intensity)


class SchedulePlanCache:
    """LRU memo of planned rounds, keyed by the scheduler's full input state."""

    def __init__(
        self,
        gpus: List[int],
        *,
        max_entries: int = 256,
        policy_id: str = "dichotomy",
    ) -> None:
        self.gpus = list(gpus)
        self.max_entries = max_entries
        #: The scheduling-policy id this cache serves (one per cache), so
        #: the aggregate counters below are also its per-policy counters.
        self.policy_id = policy_id
        self._entries: "OrderedDict[Tuple, _PlanEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Planning calls whose input could not be fingerprinted (assembly
        #: cache off, foreign FuncVec, anticipator without a fingerprint).
        self.uncacheable = 0
        #: Wall seconds spent planning + instantiating on misses — the cost
        #: a hit avoids (exported as a perf gauge).
        self.build_seconds = 0.0

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint(
        self, scheduler: LigerScheduler, link_health: float = 1.0
    ) -> Optional[Tuple]:
        """Key over everything :meth:`LigerScheduler.plan_swept` reads, plus
        the ``link_health`` the round's collectives would be costed at.

        Call *after* the drain sweep (the sweep mutates the processing
        list).  Returns None when the state is not cacheable.
        """
        processing = scheduler.processing
        if not processing:
            return None  # nothing to plan — not a cacheability failure
        sigs = []
        for fv in processing:
            sig = fv.sig
            if sig is None:
                self.uncacheable += 1
                return None
            sigs.append(sig)
        anticipator_fp = getattr(scheduler.anticipator, "fingerprint", None)
        if anticipator_fp is None:
            self.uncacheable += 1
            return None
        decomposer = scheduler.decomposer
        division = None if decomposer is None else decomposer.division_factor
        # The policy fingerprint joins the key so memoized plans never leak
        # across policies (stubs without a policy fall back to the legacy
        # packing string under the default dichotomy id).
        policy = getattr(scheduler, "policy", None)
        policy_fp = (
            policy.fingerprint()
            if policy is not None
            else ("dichotomy", scheduler.packing)
        )
        return (anticipator_fp(), division, policy_fp, link_health, tuple(sigs))

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[_PlanEntry]:
        """Look up a memoized round; counts the hit/miss and bumps LRU age."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self,
        key: Tuple,
        round_: Round,
        actions: List,
        maps0: List[Dict[int, Kernel]],
        maps1: List[Dict[int, Kernel]],
    ) -> None:
        """Memoize a freshly-planned round and its instantiated kernels."""
        self._entries[key] = _PlanEntry(
            n_primary=len(round_.subset0),
            primary_kind=round_.primary_kind,
            primary_class=getattr(round_, "primary_class", ""),
            window=round_.window,
            fill=round_.secondary_fill,
            actions=tuple(actions),
            protos0=tuple(_proto(m) for m in maps0),
            protos1=tuple(_proto(m) for m in maps1),
        )
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(
        self, scheduler: LigerScheduler, entry: _PlanEntry
    ) -> Tuple[Round, List[Dict[int, Kernel]], List[Dict[int, Kernel]]]:
        """Re-apply a memoized round to the live scheduler state.

        Pops are performed on the real FuncVecs (so drain bookkeeping and
        downstream accounting see exactly what planning would have done) and
        kernels are rebuilt from the stored prototypes with fresh uids.
        ``validate_principle1`` is skipped: the round passed it when it was
        recorded, and every float here is the recorded value.
        """
        processing = scheduler.processing
        primary = processing[0]
        subset0 = [primary.pop() for _ in range(entry.n_primary)]
        subset1: List[KernelFunc] = []
        for idx, split in entry.actions:
            fv = processing[idx]
            popped = fv.pop()
            if split is None:
                subset1.append(popped)
                continue
            piece_t, rest_t = split
            bid, size, seq = popped.batch_id, popped.batch_size, popped.seq_len
            piece = rebind(piece_t, batch_id=bid, batch_size=size, seq_len=seq)
            rest = rebind(rest_t, batch_id=bid, batch_size=size, seq_len=seq)
            fv.push_front(rest)
            subset1.append(piece)
        round_ = Round(
            index=scheduler.rounds_planned,
            primary_kind=entry.primary_kind,
            subset0=subset0,
            subset1=subset1,
            window=entry.window,
            secondary_fill=entry.fill,
            primary_class=entry.primary_class,
        )
        scheduler.rounds_planned += 1
        scheduler._sweep_drained()
        maps0 = [
            self._instantiate(p, f) for p, f in zip(entry.protos0, subset0)
        ]
        maps1 = [
            self._instantiate(p, f) for p, f in zip(entry.protos1, subset1)
        ]
        return round_, maps0, maps1

    # ------------------------------------------------------------------
    # Fast kernel instantiation (mirrors repro.parallel.base.instantiate_op
    # field for field, with the profiler-derived floats from the prototype)
    # ------------------------------------------------------------------
    def _instantiate(self, proto: Tuple, func: KernelFunc) -> Dict[int, Kernel]:
        coll_kind, duration, occupancy, mem = proto
        op = func.op
        bid = func.batch_id
        if coll_kind is None:
            return {
                gpu: _fast_kernel(
                    f"{op.name}_b{bid}@g{gpu}",
                    op.kind,
                    duration,
                    occupancy,
                    mem,
                    0.0,
                    bid,
                    op.layer,
                    op.op,
                    None,
                    op.decomposable,
                    {"desc": op},
                )
                for gpu in self.gpus
            }
        participants = (
            [op.p2p_src, op.p2p_dst]
            if coll_kind is CollectiveKind.P2P
            else list(self.gpus)
        )
        coll = CollectiveOp.__new__(CollectiveOp)
        coll.kind = coll_kind
        coll.bytes = op.comm_bytes
        coll.participants = participants
        coll.duration = duration
        coll.batch_id = bid
        coll.name = f"{op.name}_b{bid}"
        coll.members = {}
        coll.uid = next(_collective_ids)
        # Every non-P2P collective keeps the op flavour (all_reduce,
        # all_to_all, ...); P2P members are always flavoured "p2p".
        member_op = "p2p" if coll_kind is CollectiveKind.P2P else op.op
        for gpu in participants:
            coll.members[gpu] = _fast_kernel(
                f"{coll.name}@g{gpu}",
                KernelKind.COMM,
                duration,
                occupancy,
                mem,
                op.comm_bytes,
                bid,
                op.layer,
                member_op,
                coll,
                False,
                {},
            )
        return dict(coll.members)


def _fast_kernel(
    name, kind, duration, occupancy, mem, nbytes, bid, layer, op, coll, decomposable, meta
) -> Kernel:
    """Build a Kernel bypassing ``__init__`` — all values were validated when
    the prototype's original kernel was constructed the slow way."""
    kern = Kernel.__new__(Kernel)
    kern.name = name
    kern.kind = kind
    kern.duration = duration
    kern.occupancy = occupancy
    kern.memory_intensity = mem
    kern.flops = 0.0
    kern.bytes = nbytes
    kern.batch_id = bid
    kern.layer = layer
    kern.op = op
    kern.collective = coll
    kern.decomposable = decomposable
    kern.meta = meta
    kern.uid = next(_kernel_ids)
    return kern
