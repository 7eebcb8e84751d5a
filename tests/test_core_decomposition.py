"""Tests for runtime kernel decomposition (§3.6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import KernelFunc
from repro.core.decomposition import (
    DecompositionPlanner,
    split_all_to_all,
    split_allreduce,
    split_gemm_horizontal,
    split_gemm_vertical,
)
from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.models.ops import all_to_all_op, allreduce_op, attention_op, gemm_op
from repro.profiling import OpProfiler
from repro.sim.kernel import KernelKind


@pytest.fixture
def profiler():
    return OpProfiler(v100_nvlink_node(4))


def kfunc(op, profiler, decomposable=True):
    return KernelFunc(
        op=op,
        duration=profiler.duration(op),
        kind=op.kind,
        batch_id=0,
        batch_size=2,
        seq_len=64,
        decomposable=decomposable,
    )


class TestSplits:
    def test_vertical_preserves_total_columns(self):
        op = gemm_op("g", 0, 144, 7168, 28672)
        piece, rest = split_gemm_vertical(op, 3, 8)
        assert piece.gemm_shape[2] + rest.gemm_shape[2] == 28672
        assert piece.gemm_shape[:2] == (144, 7168)
        assert rest.gemm_shape[:2] == (144, 7168)

    def test_horizontal_preserves_total_rows(self):
        op = gemm_op("g", 0, 144, 7168, 28672)
        piece, rest = split_gemm_horizontal(op, 1, 4)
        assert piece.gemm_shape[0] + rest.gemm_shape[0] == 144

    def test_allreduce_preserves_bytes(self):
        op = allreduce_op("ar", 0, 8e6)
        piece, rest = split_allreduce(op, 5, 8)
        assert piece.comm_bytes + rest.comm_bytes == pytest.approx(8e6)

    def test_invalid_fraction_rejected(self):
        op = gemm_op("g", 0, 144, 512, 512)
        for numer, denom in [(0, 8), (8, 8), (9, 8), (1, 1)]:
            with pytest.raises(ConfigError):
                split_gemm_vertical(op, numer, denom)

    def test_vertical_work_conservation_flops(self, profiler):
        """Split pieces do the same total FLOPs as the whole kernel."""
        op = gemm_op("g", 0, 144, 7168, 28672)
        piece, rest = split_gemm_vertical(op, 3, 8)
        whole_flops = 2 * 144 * 7168 * 28672
        split_flops = sum(
            2 * s.gemm_shape[0] * s.gemm_shape[1] * s.gemm_shape[2]
            for s in (piece, rest)
        )
        assert split_flops == whole_flops


class TestFig9:
    """The paper's decomposition-strategy comparison."""

    def test_vertical_beats_horizontal(self, profiler):
        op = gemm_op("g", 0, 144, 7168, 28672)
        d = 8
        whole = profiler.duration(op)
        vert = sum(
            profiler.duration(split_gemm_vertical(op, 1, d)[0]) for _ in range(d)
        )
        horiz = sum(
            profiler.duration(split_gemm_horizontal(op, 1, d)[0]) for _ in range(d)
        )
        assert vert < horiz
        # vertical overhead is modest; horizontal blows up
        assert vert < 1.5 * whole
        assert horiz > 2.0 * whole


class TestPlanner:
    def test_fits_whole_window_with_largest_piece(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 144, 7168, 28672)
        f = kfunc(op, profiler)
        window = profiler.duration(op) * 0.9
        result = planner.split_to_fit(f, window)
        assert result is not None
        piece, rest = result
        assert piece.duration <= window
        assert not piece.decomposable
        assert rest.decomposable
        # pieces partition the columns
        assert piece.op.gemm_shape[2] + rest.op.gemm_shape[2] == 28672

    def test_larger_window_gets_larger_piece(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 144, 7168, 28672)
        f = kfunc(op, profiler)
        dur = profiler.duration(op)
        small = planner.split_to_fit(f, dur * 0.3)
        large = planner.split_to_fit(f, dur * 0.8)
        assert small and large
        assert large[0].op.gemm_shape[2] > small[0].op.gemm_shape[2]

    def test_window_too_small_returns_none(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 144, 7168, 28672)
        f = kfunc(op, profiler)
        assert planner.split_to_fit(f, 0.5) is None

    def test_scale_applied_to_fit(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = allreduce_op("ar", 0, 8e6)
        f = kfunc(op, profiler)
        window = profiler.duration(op) * 0.5
        unscaled = planner.split_to_fit(f, window, scale=1.0)
        scaled = planner.split_to_fit(f, window, scale=2.0)
        assert unscaled is not None and scaled is not None
        assert scaled[0].op.comm_bytes < unscaled[0].op.comm_bytes

    def test_non_decomposable_kernel_refused(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        attn = attention_op("a", 0, batch=2, q_len=64, ctx_len=64, heads=14, head_dim=128)
        f = KernelFunc(
            op=attn, duration=profiler.duration(attn), kind=KernelKind.COMPUTE,
            batch_id=0, batch_size=2, seq_len=64, decomposable=False,
        )
        assert not planner.can_decompose(f)
        assert planner.split_to_fit(f, 1e9) is None

    def test_division_factor_one_disables(self, profiler):
        planner = DecompositionPlanner(profiler, 1)
        f = kfunc(gemm_op("g", 0, 144, 7168, 28672), profiler)
        assert not planner.can_decompose(f)

    def test_profile_divisions_table(self, profiler):
        """The §3.6 offline table: d−1 monotone entries."""
        planner = DecompositionPlanner(profiler, 8)
        f = kfunc(gemm_op("g", 0, 144, 7168, 28672), profiler)
        table = planner.profile_divisions(f)
        assert len(table) == 7
        durations = [t for _, t in table]
        assert durations == sorted(durations)

    def test_tiny_gemm_not_decomposable(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        f = kfunc(gemm_op("g", 0, 2, 4, 4), profiler)
        assert not planner.can_decompose(f)


class TestSplitToFitEdges:
    """Edge coverage for split_to_fit / can_decompose (satellite)."""

    def test_division_factor_one_split_returns_none(self, profiler):
        # d = 1 admits no fractions at all, even with an infinite window.
        planner = DecompositionPlanner(profiler, 1)
        f = kfunc(gemm_op("g", 0, 144, 7168, 28672), profiler)
        assert planner.split_to_fit(f, 1e12) is None

    def test_unregistered_flavour_is_indivisible(self, profiler):
        # all_to_all is NOT in the default rule set (expert_overlap
        # registers it); the planner must refuse, not crash.
        planner = DecompositionPlanner(profiler, 8)
        f = kfunc(all_to_all_op("a2a", 0, 8e6), profiler)
        assert planner.split_rule("all_to_all") is None
        assert not planner.can_decompose(f)
        assert planner.split_to_fit(f, 1e12) is None

    def test_register_split_rule_enables_flavour(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        planner.register_split_rule("all_to_all", split_all_to_all)
        f = kfunc(all_to_all_op("a2a", 0, 8e6), profiler)
        assert planner.split_rule("all_to_all") is split_all_to_all
        assert planner.can_decompose(f)
        window = profiler.duration(f.op) * 0.6
        result = planner.split_to_fit(f, window)
        assert result is not None
        piece, rest = result
        assert piece.duration <= window
        assert ".c" in piece.op.name and rest.op.name.endswith(".rest")
        assert piece.op.comm_bytes + rest.op.comm_bytes == pytest.approx(8e6)

    def test_expert_overlap_policy_registers_all_to_all(self, profiler):
        from repro.core.policy import ExpertOverlapPolicy

        planner = DecompositionPlanner(profiler, 8)
        ExpertOverlapPolicy().configure_decomposer(planner)
        assert planner.split_rule("all_to_all") is split_all_to_all

    def test_zero_byte_collective_is_indivisible(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        planner.register_split_rule("all_to_all", split_all_to_all)
        f = kfunc(all_to_all_op("a2a", 0, 0.0), profiler)
        assert not planner.can_decompose(f)
        assert planner.split_to_fit(f, 1e12) is None

    def test_empty_remainder_error_message(self):
        # A 1-column GEMM cannot leave a non-empty rest: clear error.
        op = gemm_op("g1", 0, 4, 4, 1)
        with pytest.raises(ConfigError, match=r"g1: vertical split leaves empty remainder"):
            split_gemm_vertical(op, 1, 2)
        with pytest.raises(ConfigError, match=r"g2: horizontal split leaves empty remainder"):
            split_gemm_horizontal(gemm_op("g2", 0, 1, 4, 4), 1, 2)

    def test_degenerate_collective_split_error_messages(self):
        with pytest.raises(ConfigError, match=r"ar: degenerate all-reduce split"):
            split_allreduce(allreduce_op("ar", 0, 0.0), 1, 2)
        with pytest.raises(ConfigError, match=r"a2a: degenerate all-to-all split"):
            split_all_to_all(all_to_all_op("a2a", 0, 0.0), 1, 2)

    def test_all_to_all_invalid_fraction_message(self):
        op = all_to_all_op("a2a", 0, 8e6)
        with pytest.raises(ConfigError, match=r"invalid decomposition fraction 2/2"):
            split_all_to_all(op, 2, 2)

    def test_remainder_smaller_than_smallest_division_stops(self, profiler):
        # Window below the 1/d piece: None, and the kernel is untouched.
        planner = DecompositionPlanner(profiler, 4)
        op = allreduce_op("ar", 0, 8e6)
        f = kfunc(op, profiler)
        smallest = profiler.duration(split_allreduce(op, 1, 4)[0])
        assert planner.split_to_fit(f, smallest * 0.5) is None


@given(
    window_frac=st.floats(min_value=0.05, max_value=0.95),
    d=st.sampled_from([2, 4, 8, 16]),
)
@settings(max_examples=40, deadline=None)
def test_split_piece_always_fits_window(window_frac, d):
    profiler = OpProfiler(v100_nvlink_node(4))
    planner = DecompositionPlanner(profiler, d)
    op = gemm_op("g", 0, 144, 7168, 28672)
    f = kfunc(op, profiler)
    window = profiler.duration(op) * window_frac
    result = planner.split_to_fit(f, window)
    if result is not None:
        piece, rest = result
        assert piece.duration <= window + 1e-9
        assert piece.op.gemm_shape[2] + rest.op.gemm_shape[2] == 28672


class TestDivisionTable:
    """split_to_fit reads a per-shape division table; it must answer exactly
    what re-splitting every fraction from scratch answers."""

    OPS = {
        "gemm": gemm_op("g", 0, 144, 7168, 28672),
        "all_reduce": allreduce_op("ar", 0, 8e6),
        "all_to_all": all_to_all_op("a2a", 0, 6e6),
    }
    WINDOW_FRACS = (0.0, 0.02, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 1.5)
    SCALES = (1.0, 1.1, 1.37)

    @staticmethod
    def _planner(profiler, d):
        planner = DecompositionPlanner(profiler, d)
        planner.register_split_rule("all_to_all", split_all_to_all)
        return planner

    @staticmethod
    def _brute_force(splitter, op, d, window, scale):
        """Re-split every fraction, largest first, on a fresh profiler."""
        fresh = OpProfiler(v100_nvlink_node(4))
        for numer in range(d - 1, 0, -1):
            piece_op, rest_op = splitter(op, numer, d)
            duration = fresh.duration(piece_op)
            if duration * scale <= window:
                return piece_op, duration, rest_op, fresh.duration(rest_op)
        return None

    def _assert_matches(self, planner, func, window, scale):
        expected = self._brute_force(
            planner.split_rule(func.op.op), func.op,
            planner.division_factor, window, scale,
        )
        got = planner.split_to_fit(func, window, scale=scale)
        if expected is None:
            assert got is None
            return None
        assert got is not None
        piece, rest = got
        piece_op, piece_duration, rest_op, rest_duration = expected
        assert piece.op == piece_op  # name, shape / bytes, every field
        assert rest.op == rest_op
        assert piece.duration == piece_duration
        assert rest.duration == rest_duration
        assert not piece.decomposable and rest.decomposable
        return got

    @pytest.mark.parametrize("flavour", sorted(OPS))
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matches_brute_force_resplit(self, profiler, flavour, d):
        planner = self._planner(profiler, d)
        op = self.OPS[flavour]
        whole = profiler.duration(op)
        for scale in self.SCALES:
            for frac in self.WINDOW_FRACS:
                self._assert_matches(
                    planner, kfunc(op, profiler), whole * frac, scale
                )
            # Windows exactly on each table entry exercise the <= boundary.
            for _, duration in planner.profile_divisions(kfunc(op, profiler)):
                self._assert_matches(
                    planner, kfunc(op, profiler), duration * scale, scale
                )

    @pytest.mark.parametrize("flavour", sorted(OPS))
    def test_remainder_chain_matches_brute_force(self, profiler, flavour):
        # Re-splitting remainders walks fresh shapes through the table.
        planner = self._planner(profiler, 8)
        func = kfunc(self.OPS[flavour], profiler)
        window = profiler.duration(func.op) * 0.3
        for _ in range(6):
            got = self._assert_matches(planner, func, window, 1.0)
            if got is None or not planner.can_decompose(got[1]):
                break
            func = got[1]

    def test_same_shape_different_names_share_table_not_names(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        window = profiler.duration(self.OPS["gemm"]) * 0.5
        for name in ("first", "second"):
            op = gemm_op(name, 3, 144, 7168, 28672)
            piece, rest = self._assert_matches(
                planner, kfunc(op, profiler), window, 1.0
            )
            assert piece.op.name.startswith(f"{name}.v")
            assert rest.op.name == f"{name}.rest"
            assert piece.op.layer == 3

    def test_splitter_called_once_per_lookup_after_first(self, profiler):
        calls = []

        def counting(op, numer, denom):
            calls.append(numer)
            return split_gemm_vertical(op, numer, denom)

        planner = DecompositionPlanner(profiler, 8)
        planner.register_split_rule("gemm", counting)
        f = kfunc(self.OPS["gemm"], profiler)
        window = profiler.duration(f.op) * 0.5
        assert planner.split_to_fit(f, window) is not None
        assert len(calls) == 7 + 1  # the table, then the winning fraction
        calls.clear()
        piece, _ = planner.split_to_fit(f, window)
        assert calls == [int(piece.op.name.split(".v")[1].split("/")[0])]
        calls.clear()
        assert planner.split_to_fit(f, 0.0) is None
        assert calls == []

    def test_register_after_lookup_never_serves_old_table(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 64, 7168, 28672)
        window = profiler.duration(op)
        vertical, _ = planner.split_to_fit(kfunc(op, profiler), window)
        assert ".v" in vertical.op.name
        planner.register_split_rule("gemm", split_gemm_horizontal)
        piece, _ = self._assert_matches(
            planner, kfunc(op, profiler), window, 1.0
        )
        assert ".h" in piece.op.name
        assert planner.profile_divisions(kfunc(op, profiler)) == [
            (f"{numer}/8", profiler.duration(split_gemm_horizontal(op, numer, 8)[0]))
            for numer in range(1, 8)
        ]
        # Switching back rebuilds (or reuses) the vertical rule's table.
        planner.register_split_rule("gemm", split_gemm_vertical)
        assert self._assert_matches(
            planner, kfunc(op, profiler), window, 1.0
        )[0].op == vertical.op

    @pytest.mark.parametrize("flavour", sorted(OPS))
    def test_profile_divisions_agree_with_split_to_fit(self, profiler, flavour):
        planner = self._planner(profiler, 8)
        func = kfunc(self.OPS[flavour], profiler)
        splitter = planner.split_rule(flavour)
        table = dict(planner.profile_divisions(func))
        assert list(table) == [f"{numer}/8" for numer in range(1, 8)]
        for numer in range(1, 8):
            label = f"{numer}/8"
            assert table[label] == profiler.duration(splitter(func.op, numer, 8)[0])
            # A window of exactly this division's duration returns a piece
            # whose duration is the table's entry for the piece's label.
            piece, _ = planner.split_to_fit(func, table[label])
            piece_label = piece.op.name.rsplit(".", 1)[1][1:]
            assert piece.duration == table[piece_label]
            assert piece.duration <= table[label]
            assert int(piece_label.split("/")[0]) >= numer
