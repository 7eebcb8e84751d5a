"""The ``trace`` CLI: serve a workload and export the merged timeline.

Usage::

    python -m repro trace --model OPT-30B --node v100 --strategy liger \\
        --rate 50 --requests 64 --out trace.json --metrics-out metrics.prom
    python -m repro trace --max-pending 16 --deadline-ms 50 --out t.json
    python -m repro trace --summarize t.json     # inspect an existing file

The run serves the workload with observability armed and the kernel trace
recorded, then writes the merged Chrome/Perfetto trace (request spans +
kernel slices + control instants on one timeline) and, optionally, the
Prometheus text exposition and the JSON metrics snapshot.  ``--summarize``
instead parses an existing merged trace and prints its per-class counts.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import (
    overload_config_from_args,
    overload_parent,
    resolve_model_node,
    workload_parent,
)
from repro.errors import ConfigError
from repro.obs.export import validate_merged_trace
from repro.obs.observability import Observability
from repro.serving.api import serve

__all__ = ["main", "summarize_trace"]


def summarize_trace(path: str) -> str:
    """Parse an existing merged trace and render its per-class counts."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    counts = validate_merged_trace(obj)
    total = len(obj["traceEvents"])
    lines = [f"{path}: {total} event(s)"]
    lines.append(f"  kernel slices:    {counts['kernel']}")
    lines.append(f"  request spans:    {counts['span']}")
    lines.append(f"  control instants: {counts['instant']}")
    if counts["fault"]:
        lines.append(f"  fault windows:    {counts['fault']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``python -m repro trace``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Serve a workload with observability armed and export "
        "the merged Perfetto timeline and metrics.",
        parents=[workload_parent(), overload_parent()],
    )
    parser.add_argument("--summarize", metavar="PATH",
                        help="summarize an existing merged trace and exit")
    parser.add_argument("--out", default="trace.json", metavar="PATH",
                        help="merged Chrome/Perfetto trace (default trace.json)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="Prometheus text exposition of the run's metrics")
    parser.add_argument("--snapshot-out", metavar="PATH",
                        help="JSON metrics snapshot (counters + samples)")
    args = parser.parse_args(argv)

    if args.summarize is not None:
        try:
            print(summarize_trace(args.summarize))
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            parser.error(f"cannot summarize {args.summarize}: {exc}")
        return 0

    obs = Observability()
    model, node = resolve_model_node(args)
    result = serve(
        model,
        node,
        strategy=args.strategy,
        workload=args.workload,
        policy=args.policy,
        arrival_rate=args.rate,
        num_requests=args.requests,
        batch_size=args.batch,
        seed=args.seed,
        record_trace=True,
        overload=overload_config_from_args(args),
        observability=obs,
    )
    print(result.summary())
    counts = obs.save_merged_trace(args.out, trace=result.trace)
    print(
        f"merged trace written to {args.out}: "
        f"{counts['kernel']} kernel slice(s), {counts['span']} request "
        f"span segment(s), {counts['instant']} control instant(s)"
    )
    if args.metrics_out:
        obs.save_prometheus(args.metrics_out)
        print(f"prometheus metrics written to {args.metrics_out}")
    if args.snapshot_out:
        obs.save_snapshot(args.snapshot_out)
        print(f"metrics snapshot written to {args.snapshot_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
