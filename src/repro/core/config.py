"""Liger runtime configuration.

Gathers every tunable the paper exposes: the synchronization approach
(§3.4), the kernel decomposition division factor (§3.6 / Fig. 14, default 8
as in §4.2), contention factors (§3.5, profiled offline unless pinned), the
processing-list size (§3.3), and the NCCL footprint mitigation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.profiling.contention_profiler import ContentionFactors
from repro.units import us

__all__ = ["SyncMode", "LigerConfig"]


class SyncMode(enum.Enum):
    """How kernel execution order across streams is enforced (§3.4, Fig. 8).

    * ``CPU_GPU`` — the host waits for each round's completion events, then
      launches the next round; precise but exposes launch overhead (the
      >20 µs multi-GPU gap of §4.5).
    * ``INTER_STREAM`` — everything is pre-launched and ordered purely with
      stream-wait events; no CPU involvement, but communication kernels
      suffer startup lag in deep launch queues (§3.4's observed problem).
    * ``HYBRID`` — Liger's approach: a first event (before the last kernel
      of the round) wakes the CPU to *pre-launch* the next round while that
      kernel still runs, hiding launch overhead; a second event gates
      execution GPU-side with inter-stream sync, keeping order exact.
    """

    CPU_GPU = "cpu_gpu"
    INTER_STREAM = "inter_stream"
    HYBRID = "hybrid"


@dataclass
class LigerConfig:
    """Tunables of the Liger runtime.

    Parameters
    ----------
    max_inflight:
        Processing-list size (§3.3): how many batches may have kernels in
        flight at once.  Further batches wait in the waiting queue.
    sync_mode:
        Synchronization approach (see :class:`SyncMode`).
    division_factor:
        Runtime kernel decomposition granularity ``d`` (§3.6): decomposable
        kernels may be split into pieces of ``i/d`` for ``1 ≤ i < d``.  The
        paper evaluates 2/4/8/16 (Fig. 14) and uses 8 in §4.2.
    enable_decomposition:
        Ablation switch for §3.6.
    contention_factors:
        Offline-profiled factors (§3.5).  ``None`` means the runtime profiles
        them itself at bind time (the preprocessing phase's offline
        procedure); pass explicit factors to skip that or to ablate
        (``ContentionFactors(compute=1.0, comm=1.0)`` disables anticipation).
    reduce_nccl_channels:
        Apply the §3.5 mitigation (shrink NCCL's SM footprint).  Without it
        collectives rarely fit beside a GEMM under the left-over policy.
    adaptive_anticipation:
        Extension: learn contention factors online from executed kernels
        (a decayed running maximum) instead of the offline profiling pass.
        When set, ``contention_factors`` is ignored and no offline
        contention profiling runs at bind time.
    packing:
        Secondary-subset packing policy: ``"first_fit"`` walks subsequent
        batches in arrival order (the paper's Algorithm 1); ``"best_fit"``
        (extension) greedily picks the largest eligible batch head that
        fits the residual window, trading fairness for fill.
    policy:
        Scheduling policy (:mod:`repro.core.policy`): ``"dichotomy"`` is
        the paper's Algorithm 1 (compute vs communication, the default,
        bit-identical to the goldens); ``"expert_overlap"`` generalizes
        Principle 1 to resource classes so MoE expert GEMMs interleave
        against all-to-all dispatch/combine.
    comm_lag_penalty:
        Extra communication-kernel startup latency (µs) charged in pure
        ``INTER_STREAM`` mode — the empirically-observed launch-queue lag
        that motivated the hybrid approach.
    enable_plan_cache:
        Memoize Algorithm 1: when the scheduler's input state fingerprints
        identically to an earlier planning call (same processing-list
        shapes, same contention scales, same decomposition config), replay
        the recorded round instead of re-planning.  Bit-identical to
        planning from scratch; the goldens' cache-off arm
        (``tests/serving_goldens.py``) disables it and asserts the same
        traces.
    plan_cache_size:
        LRU capacity (entries) of the schedule-plan cache.
    enable_assembly_cache:
        Memoize function assembly by batch shape
        (:class:`~repro.core.assembly.FunctionAssembler`).  Also what makes
        FuncVecs fingerprintable — with this off the plan cache never hits.
    enable_sim_memos:
        The remaining hot-path memos this subsystem layers onto its
        execution substrate: the machine's shape-keyed contention-slowdown
        memo and the profiler's occupancy/memory-footprint memos.  The
        goldens' cache-off arm (``tests/serving_goldens.py``) disables them
        together with the plan and assembly caches and asserts the same
        traces; all of them are bit-identical on/off.
    enable_timeline_replay:
        The compiled-timeline fast path (:mod:`repro.sim.timeline`): after
        each HYBRID round launch, the anchor-to-anchor window is compiled
        into a batched advance instead of being interpreted event by event.
        Bit-identical on/off by construction (the compiler bails to the
        interpreted path on anything it does not model); the golden suite
        pins the equivalence.  Only HYBRID windows are eligible, so the
        flag is inert under ``CPU_GPU``/``INTER_STREAM``.
    """

    max_inflight: int = 4
    sync_mode: SyncMode = SyncMode.HYBRID
    division_factor: int = 8
    enable_decomposition: bool = True
    contention_factors: Optional[ContentionFactors] = None
    reduce_nccl_channels: bool = True
    adaptive_anticipation: bool = False
    packing: str = "first_fit"
    policy: str = "dichotomy"
    comm_lag_penalty: float = us(12.0)
    enable_plan_cache: bool = True
    plan_cache_size: int = 256
    enable_assembly_cache: bool = True
    enable_sim_memos: bool = True
    enable_timeline_replay: bool = True

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.division_factor < 1:
            raise ConfigError("division_factor must be >= 1")
        if not isinstance(self.sync_mode, SyncMode):
            raise ConfigError(f"sync_mode must be a SyncMode, got {self.sync_mode!r}")
        if self.packing not in ("first_fit", "best_fit"):
            raise ConfigError(f"unknown packing policy {self.packing!r}")
        # Imported lazily: repro.core.policy depends on assembly/kernel,
        # not on config, so the late import breaks no cycles.
        from repro.core.policy import POLICIES, policy_names

        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown scheduling policy {self.policy!r}; "
                f"available: {', '.join(policy_names())}"
            )
        if self.comm_lag_penalty < 0:
            raise ConfigError("comm_lag_penalty must be >= 0")
        if self.plan_cache_size < 1:
            raise ConfigError("plan_cache_size must be >= 1")
