"""Same-host A/B of the repository benchmark between two checkouts.

    python3 tools/perf_ab.py BASE HEAD

Runs ``perfbench/run.py --trace 0 --seconds 3`` from each checkout's root on
every workload that both checkouts' ``BENCHMARK.json`` declare, in three
pairs that alternate which side goes first, so drift on the host falls on
both sides.  Exits 1 when a run is not ``correct`` (or prints no JSON
record), or when an ``end_to_end`` metric that both sides declare has a
head median worse than the base median by more than HEAD's ``bound`` for
it, and head is also worse in every pair.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 3


def bench(root: Path, workload: str) -> dict:
    """One ``--trace 0`` invocation in ``root``; its last-line JSON record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "0", "--seconds", "3"],
        cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    if not result["correct"]:
        print(f"{root} {workload}: not correct\n{proc.stderr.strip()}")
    return result


def shared(key: str, base: dict, head: dict) -> list:
    """HEAD's ``key`` entries whose names BASE's spec declares too."""
    names = {entry["name"] for entry in base.get(key, [])}
    return [entry for entry in head[key] if entry["name"] in names]


def loss(metric: dict, head: float, base: float) -> float:
    """How much worse ``head`` is than ``base``, relative to ``base``."""
    delta = head - base if metric["better"] == "lower" else base - head
    return delta / abs(base) if base else (float("inf") if delta > 0 else 0.0)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/perf_ab.py BASE HEAD", file=sys.stderr)
        return 2
    base, head = (Path(p).resolve() for p in argv)
    base_spec, spec = (json.loads((root / "BENCHMARK.json").read_text())
                       for root in (base, head))
    metrics = shared("end_to_end", base_spec, spec)
    failed = False
    for workload in (w["name"] for w in shared("workloads", base_spec, spec)):
        runs = {base: [], head: []}
        for pair in range(PAIRS):
            for side in (base, head) if pair % 2 == 0 else (head, base):
                runs[side].append(bench(side, workload))
        if not all(r["correct"] for r in runs[base] + runs[head]):
            failed = True
            continue
        for metric in metrics:
            b, h = ([r["metrics"][metric["name"]]["value"] for r in runs[side]]
                    for side in (base, head))
            worse = loss(metric, statistics.median(h), statistics.median(b))
            every_pair = all(loss(metric, x, y) > 0 for x, y in zip(h, b))
            bad = worse > metric["bound"] and every_pair
            failed |= bad
            print(f"{workload:<17} {metric['name']:<21} base "
                  f"{statistics.median(b):>11.5g} head {statistics.median(h):>11.5g}"
                  f" loss {worse:+7.1%} (bound {metric['bound']:.0%})"
                  f" {'FAIL' if bad else 'ok'}")
    print("perf A/B: " + ("FAIL" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
