"""The repository benchmark: host cost and simulated serving quality.

One command runs one workload through the library's public entry points,
checks the outputs, and prints every metric by name and unit:

    python3 perfbench/run.py --workload decode_steady --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats fresh-interpreter runs (``child.py --mode plain``)
until ``--seconds`` have passed and at least three runs finished, then
reports the end-to-end metrics: host-time figures as the median over runs,
simulated-time figures from the first run after checking that every run
produced the same outcome fingerprint.  ``--trace 1`` makes one plain, one
wrapped and one recorded run of the same seed and reports the per-layer
metrics.  Metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root; see ``perfbench/README.md`` for what each one means.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run (host stamp, every child's result, cross-checks) is written to
``.perfbench_out/`` in the checkout.  Run it from the repository root; it
exits with status 2 where ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The seed results are quoted at, and one held out from tuning that any
#: later claim must also hold on.
DEFAULT_SEED = 1
HELDOUT_SEED = 20261017

#: Fewest plain runs a ``--trace 0`` measurement medians over.
MIN_RUNS = 3
#: Every child must have ended this many seconds after the command started
#: (the command itself must end within 180 s).
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """A run that cannot produce a number."""


def host_stamp(root: Path) -> dict:
    """Where and on what code the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the checkout need not be a git repository
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


def run_child(root: Path, workload: str, seed: int, mode: str, deadline: float,
              spans_out: Path = None) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON record.

    The child is killed (and waited for) if it is still running at the
    ``time.monotonic()`` instant ``deadline``.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    # One sequential process: no BLAS threads, fixed hashing.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run did not end within {DEADLINE_S:.0f} s "
                         "of the start") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} run exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def failures(record: dict) -> list:
    return [f"{name}: {detail}" for name, held, detail in record["checks"]
            if not held]


def end_to_end(records: list) -> dict:
    """Host metrics as medians over runs; simulated ones from the first."""
    first = records[0]
    if len({r["fingerprint"] for r in records}) != 1:
        raise BenchError("outcome fingerprints differ between runs of one seed")
    if any(r["sim"] != first["sim"] for r in records):
        raise BenchError("simulated metrics differ between runs of one seed")
    out = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "host_cpu_s_per_sim_s": statistics.median(
            r["run_cpu_s"] / r["sim_s"] for r in records),
        "sim_req_per_host_s": statistics.median(
            r["completed"] / r["run_cpu_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    out.update(first["sim"])
    return out


def per_layer(plain: dict, wrapped: dict, recorded: dict) -> dict:
    prints = {plain["fingerprint"], wrapped["fingerprint"],
              recorded["fingerprint"]}
    if len(prints) != 1:
        raise BenchError("traced or recorded run changed the outcome "
                         "fingerprint: " + ", ".join(sorted(prints)))
    out = dict(wrapped["layers"])
    out.update(recorded["shares"])
    out["bench.trace_overhead"] = wrapped["run_cpu_s"] / plain["run_cpu_s"]
    return out


def measure(root: Path, args, out_dir: Path) -> tuple:
    """Run the children; return ``(metrics, records)``."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-s{args.seed}.npz"
        records = [
            run_child(root, args.workload, args.seed, mode, deadline,
                      spans if mode == "wrapped" else None)
            for mode in ("plain", "wrapped", "recorded")
        ]
    else:
        records = []
        while True:
            child_start = time.monotonic()
            records.append(
                run_child(root, args.workload, args.seed, "plain", deadline))
            now = time.monotonic()
            if len(records) >= MIN_RUNS and now - started >= args.seconds:
                break
            if now + (now - child_start) > deadline:
                break  # another run would not end in time
    bad = [f"{r['mode']} run: {f}" for r in records for f in failures(r)]
    if bad:
        raise BenchError("output checks failed:\n  " + "\n  ".join(bad))
    if args.trace:
        metrics = per_layer(*records)
    else:
        metrics = end_to_end(records)
    return metrics, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run it from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stamp = host_stamp(root)
    print("host: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    try:
        metrics, records = measure(root, args, out_dir)
        missing = {m["name"] for m in declared} ^ set(metrics)
        if missing:
            raise BenchError(f"metrics differ from BENCHMARK.json: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    print(f"runs={len(records)} fingerprint={records[0]['fingerprint']}")
    for m in declared:
        print(f"  {m['name']:<42} {metrics[m['name']]:>16.6g} {m['unit']:<8}"
              f" ({m['better']} is better)")
    tpot = records[0].get("sim_tpot_p50_ms")
    if not args.trace and tpot is not None:
        print(f"  {'sim_tpot_p50_ms (not gated)':<42} {tpot:>16.6g} ms")
    for check in records[1].get("cross_checks", []) if args.trace else []:
        verdict = "match" if check["match"] else f"GAP {check['gap']:+d}"
        print(f"  cross-check {check['metric']}: wrapped={check['wrapped']} "
              f"program={check['program']} {verdict} ({check['what']})")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["attempted"] - r["completed"] for r in records)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    record = dict(result, host=stamp, workload=args.workload, seed=args.seed,
                  trace=args.trace, heldout_seed=HELDOUT_SEED, runs=records)
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
