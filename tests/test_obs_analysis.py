"""The critical-path walk's indexed predecessor search against a plain scan.

:func:`repro.obs.analysis._walk_path` finds each hop's predecessor by
bisection over end-time indexes.  ``_scan_walk`` below is the linear scan
it replaced, kept verbatim as the reference: both must return the same
path on random multi-lane traces, including ones full of tied end times.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.obs import analysis
from repro.obs.analysis import _EPS, PathSegment, _Row
from repro.sim.kernel import KernelKind
from repro.sim.tracing import TraceRow


def _scan_walk(tagged: List[_Row], t0: float) -> List[PathSegment]:
    """Reference: the quadratic walk (every input-gated hop scans all rows)."""
    if not tagged:
        return []
    by_lane: Dict[Tuple[str, int], List[_Row]] = {}
    for t in tagged:
        by_lane.setdefault((t.replica, t.row.gpu), []).append(t)

    def kind_of(row) -> str:
        return "comm" if row.kind is KernelKind.COMM else "compute"

    cur = max(tagged, key=lambda t: (t.row.end, t.row.start))
    frontier = cur.row.end
    segments: List[PathSegment] = []
    for _ in range(len(tagged) + 1):
        row = cur.row
        seg_start = min(row.start, frontier)
        if frontier > seg_start:
            segments.append(PathSegment(
                kind=kind_of(row), name=row.op or row.name,
                replica=cur.replica, gpu=row.gpu,
                start_us=seg_start, end_us=frontier,
            ))
        frontier = seg_start
        if frontier <= t0 + _EPS:
            break
        if row.start > row.ready + _EPS:
            pool = by_lane.get((cur.replica, row.gpu), [])
            gate = row.start
        else:
            pool = tagged
            gate = row.ready
        limit = min(gate + _EPS, frontier)
        pred: Optional[_Row] = None
        for cand in pool:
            if cand is cur or cand.row.end > limit:
                continue
            if pred is None or cand.row.end > pred.row.end:
                pred = cand
        if pred is None:
            if frontier > t0:
                segments.append(PathSegment(
                    kind="wait", name="start", replica=cur.replica,
                    gpu=row.gpu, start_us=t0, end_us=frontier,
                ))
            break
        if pred.row.end < frontier - _EPS:
            segments.append(PathSegment(
                kind="wait", name="dependency" if pool is tagged else "device",
                replica=cur.replica, gpu=row.gpu,
                start_us=pred.row.end, end_us=frontier,
            ))
            frontier = pred.row.end
        cur = pred
    segments.reverse()
    return segments


def _random_trace(seed: int, n: int) -> List[_Row]:
    """Rows on 2 replicas x 3 GPUs on a coarse time grid, so many end
    times tie; about half the kernels are input-gated (start == ready)."""
    rng = random.Random(seed)
    tagged = []
    for i in range(n):
        ready = float(rng.randrange(0, 40))
        start = ready if rng.random() < 0.5 else ready + rng.randrange(1, 6)
        end = start + rng.randrange(1, 8)
        gpu = rng.randrange(3)
        kind = KernelKind.COMM if rng.random() < 0.3 else KernelKind.COMPUTE
        # No op name: segments are then named after their (unique) row,
        # so choosing any other predecessor changes the path.
        row = TraceRow(
            gpu=gpu, stream=f"s{gpu}", name=f"k{i}", kind=kind,
            batch_id=0, layer=0, op="", ready=ready, start=start, end=end,
            noload_duration=end - start,
        )
        tagged.append(_Row(rng.choice(["", "r1"]), row))
    return tagged


@pytest.mark.parametrize("seed", range(40))
def test_indexed_walk_matches_the_scan(seed):
    tagged = _random_trace(seed, n=5 + seed * 5)
    t0 = min(t.row.start for t in tagged)
    expected = _scan_walk(tagged, t0)
    assert expected  # a non-trivial path
    assert analysis._walk_path(tagged, t0) == expected


def test_ties_pick_the_first_row_other_than_the_current_one():
    def row(gpu, ready, start, end, name):
        return _Row("", TraceRow(
            gpu=gpu, stream="s", name=name, kind=KernelKind.COMPUTE,
            batch_id=0, layer=0, op="", ready=ready, start=start, end=end,
            noload_duration=end - start,
        ))

    # The tail kernel is input-gated at t=10 and three kernels end there:
    # the first of them in row order, "b", is its predecessor.
    tagged = [row(1, 0.0, 0.0, 10.0, "b"), row(0, 0.0, 0.0, 10.0, "a"),
              row(0, 10.0, 10.0, 20.0, "tail"), row(2, 5.0, 5.0, 10.0, "c")]
    path = analysis._walk_path(tagged, 0.0)
    assert [s.name for s in path] == ["b", "tail"]
    assert path == _scan_walk(tagged, 0.0)


def test_empty_trace():
    assert analysis._walk_path([], 0.0) == []
