"""Offline kernel profiling (the preprocessing phase's offline procedure).

Liger profiles every kernel's no-load duration before deployment and feeds
those durations to the scheduler (Fig. 5; §3.2's function wrappers carry
"the kernel duration").  In this reproduction the analytical cost model
*plays the role of the hardware* (DESIGN.md §2), so a "measurement" of a
solo kernel equals the cost-model value by construction; the profiler's jobs
are therefore (a) to be the single component that owns the
op → (duration, occupancy, memory-intensity) mapping, with caching keyed on
op identity, and (b) to provide :meth:`OpProfiler.measure_solo`, which
*actually executes* the kernel on a scratch machine and reads the trace —
used by tests to prove the executor honours profiled durations, and by the
contention profiler as the no-load reference.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.hw.devices import NodeSpec
from repro.models.costs import KernelCostModel
from repro.models.ops import OpDesc
from repro.sim.contention import NullContention
from repro.sim.engine import Engine
from repro.sim.gpu import Machine
from repro.sim.interconnect import CollectiveCostModel, NcclConfig
from repro.sim.kernel import Kernel
from repro.sim.tracing import Trace

__all__ = ["OpProfiler", "op_key"]


def op_key(op: OpDesc) -> Tuple:
    """A hashable identity for caching profiled values.

    Two ops with the same flavour and shape share a profile — exactly how a
    real profile database is keyed (kernel + launch configuration).
    """
    if op.op == "gemm":
        return ("gemm", op.gemm_shape)
    if op.op == "attention":
        return (
            "attention",
            op.attn_batch,
            op.attn_q_len,
            op.attn_ctx_len,
            op.attn_heads,
            op.attn_head_dim,
        )
    if op.op in ("elementwise", "embed", "kv_append"):
        return (op.op, op.elems, op.rw_factor)
    if op.op == "all_reduce":
        return ("all_reduce", op.comm_bytes)
    if op.op == "all_to_all":
        return ("all_to_all", op.comm_bytes)
    if op.op == "p2p":
        return ("p2p", op.comm_bytes, op.p2p_src, op.p2p_dst)
    raise ConfigError(f"unknown op flavour {op.op!r}")


class OpProfiler:
    """Profiled durations and footprints for a (node, model-config) pair.

    Parameters
    ----------
    node:
        Testbed; determines the device cost model and collective topology.
    cost_model:
        Override the per-device kernel cost model.
    nccl:
        Communication-library configuration.  Liger passes the *reduced*
        config (§3.5); baselines profile with NCCL defaults.
    participants:
        Ranks collectives run over (defaults to all GPUs of the node).
    memoize:
        Cache per-op occupancy/memory-intensity lookups (the duration
        profile database itself is always cached — it *is* the profile).
        The goldens' cache-off arm (``tests/serving_goldens.py``) disables
        this and asserts the same traces; results are bit-identical either
        way.
    """

    def __init__(
        self,
        node: NodeSpec,
        *,
        cost_model: Optional[KernelCostModel] = None,
        nccl: Optional[NcclConfig] = None,
        participants: Optional[Sequence[int]] = None,
        memoize: bool = True,
    ) -> None:
        self.node = node
        self.cost_model = cost_model or KernelCostModel(node.gpu)
        self.nccl = nccl or NcclConfig()
        self.collectives = CollectiveCostModel(node.topology, self.nccl)
        self.participants = (
            list(participants) if participants is not None else list(range(node.num_gpus))
        )
        self.memoize = memoize
        self._cache: Dict[Tuple, float] = {}
        self._occ_cache: Dict[Tuple, float] = {}
        self._mem_cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
    # The profile database
    # ------------------------------------------------------------------
    def duration(self, op: OpDesc) -> float:
        """No-load duration (µs) of one op, cached."""
        key = op_key(op)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if op.op == "all_reduce":
            value = self.collectives.allreduce_duration(op.comm_bytes, self.participants)
        elif op.op == "all_to_all":
            value = self.collectives.alltoall_duration(op.comm_bytes, self.participants)
        elif op.op == "p2p":
            value = self.collectives.p2p_duration(op.comm_bytes, op.p2p_src, op.p2p_dst)
        else:
            value = self.cost_model.duration(op)
        self._cache[key] = value
        return value

    def occupancy(self, op: OpDesc) -> float:
        """SM footprint of the op's kernel, memoized when enabled."""
        if self.memoize:
            key = op_key(op)
            hit = self._occ_cache.get(key)
            if hit is not None:
                return hit
        if op.is_comm:
            # Ring and all-to-all collectives carry the full NCCL channel
            # footprint; p2p copies ride the copy engines.
            value = (
                self.nccl.occupancy
                if op.op in ("all_reduce", "all_to_all")
                else min(self.nccl.occupancy, 0.04)
            )
        else:
            value = self.cost_model.occupancy(op)
        if self.memoize:
            self._occ_cache[key] = value
        return value

    def memory_intensity(self, op: OpDesc) -> float:
        """HBM footprint of the op's kernel, memoized when enabled."""
        if self.memoize:
            key = op_key(op)
            hit = self._mem_cache.get(key)
            if hit is not None:
                return hit
        if op.is_comm:
            value = self.collectives._comm_memory_intensity(op.comm_bytes)
        else:
            value = self.cost_model.memory_intensity(op)
        if self.memoize:
            self._mem_cache[key] = value
        return value

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Actual measurement on a scratch machine
    # ------------------------------------------------------------------
    def measure_solo(self, op: OpDesc) -> float:
        """Execute the op alone on a scratch machine; return measured µs.

        For compute ops this runs one kernel on GPU 0; for collectives it
        runs the member group across ``participants``.  With nothing else
        resident the measurement must equal :meth:`duration` — the test
        suite asserts this (executor honours profiles).
        """
        machine = Machine(
            self.node, Engine(), contention=NullContention(), trace=Trace()
        )
        if op.op == "all_reduce":
            coll = self.collectives.make_allreduce(op.comm_bytes, self.participants)
            for gpu in self.participants:
                stream = machine.gpu(gpu).stream("profile")
                machine.launch(stream, coll.members[gpu], available_at=0.0)
        elif op.op == "all_to_all":
            coll = self.collectives.make_all_to_all(op.comm_bytes, self.participants)
            for gpu in self.participants:
                stream = machine.gpu(gpu).stream("profile")
                machine.launch(stream, coll.members[gpu], available_at=0.0)
        elif op.op == "p2p":
            coll = self.collectives.make_p2p(op.comm_bytes, op.p2p_src, op.p2p_dst)
            for gpu in (op.p2p_src, op.p2p_dst):
                stream = machine.gpu(gpu).stream("profile")
                machine.launch(stream, coll.members[gpu], available_at=0.0)
        else:
            kernel = Kernel(
                name=f"profile:{op.name}",
                kind=op.kind,
                duration=self.cost_model.duration(op),
                occupancy=self.occupancy(op),
                memory_intensity=self.memory_intensity(op),
            )
            machine.launch(machine.gpu(0).stream("profile"), kernel, available_at=0.0)
        machine.run()
        assert machine.trace is not None
        return max(r.duration for r in machine.trace.rows)
