"""CLI: ``python -m repro telemetry`` — windowed series, SLO alerts, and
critical-path analytics for any serving or chaos run.

Examples::

    # Single-node run: critical-path report + alert table on stdout.
    python -m repro telemetry --strategy liger --rate 50 --requests 64

    # Overloaded run with an availability SLO; write the windowed series:
    python -m repro telemetry --rate 4000 --requests 512 \\
        --max-pending 32 --admission shed-oldest --deadline-ms 100 \\
        --slo-availability 0.95 --alerts --series-out series.json

    # Cluster chaos run (replicas > 1 switches to the chaos harness):
    python -m repro telemetry --replicas 3 --crashes 1 --seed 7 \\
        --report --alerts --series-out series.prom --timeline merged.json

``--series-out`` picks the format by extension: ``.prom`` writes the
timestamped Prometheus exposition, anything else the JSON window dump.
With none of ``--report``/``--alerts`` given, both are printed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import (
    install_log_handler,
    overload_config_from_args,
    overload_parent,
    resolve_model_node,
    workload_parent,
)
from repro.obs.observability import Observability, ObservabilityConfig
from repro.obs.slo import SloPolicy

__all__ = ["main", "build_policies"]


def build_policies(args: argparse.Namespace) -> tuple:
    """Translate the ``--slo-*`` flags into :class:`SloPolicy` objects.

    With no flags given, a default availability policy is armed so the
    alert table always has an objective to judge.
    """
    policies = []
    if args.slo_availability is not None:
        policies.append(SloPolicy("availability", target=args.slo_availability))
    if args.slo_p99_ms is not None:
        policies.append(
            SloPolicy(
                "latency-p99",
                objective="latency",
                target=args.slo_latency_target,
                latency_threshold_ms=args.slo_p99_ms,
            )
        )
    if args.slo_deadline is not None:
        policies.append(
            SloPolicy("deadline", objective="deadline", target=args.slo_deadline)
        )
    if not policies:
        policies.append(SloPolicy("availability", target=0.95))
    return tuple(policies)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry",
        description="Serve a workload with the telemetry store and SLO "
        "engine armed; render series, burn-rate alerts, and the "
        "critical-path report.",
        parents=[workload_parent(), overload_parent()],
    )
    cluster = parser.add_argument_group("cluster mode (replicas > 1)")
    cluster.add_argument("--replicas", type=int, default=1,
                         help="run a seeded chaos cluster with N replicas")
    cluster.add_argument("--layers", type=int, default=4, metavar="N",
                         help="cluster mode: scale the model to N layers")
    cluster.add_argument("--crashes", type=int, default=0,
                         help="cluster mode: node crashes to draw")
    cluster.add_argument("--partitions", type=int, default=0,
                         help="cluster mode: network partitions to draw")
    slo = parser.add_argument_group("SLO policies")
    slo.add_argument("--slo-availability", type=float, default=None,
                     metavar="T", help="availability objective, e.g. 0.95")
    slo.add_argument("--slo-p99-ms", type=float, default=None, metavar="MS",
                     help="latency objective: good = completed under MS")
    slo.add_argument("--slo-latency-target", type=float, default=0.99,
                     metavar="T", help="good fraction for --slo-p99-ms "
                     "(default 0.99)")
    slo.add_argument("--slo-deadline", type=float, default=None, metavar="T",
                     help="deadline-attainment objective, e.g. 0.9")
    out = parser.add_argument_group("outputs")
    out.add_argument("--report", action="store_true",
                     help="print the critical-path report")
    out.add_argument("--alerts", action="store_true",
                     help="print the burn-rate alert table")
    out.add_argument("--series-out", metavar="PATH", default=None,
                     help="write the windowed series (.prom = exposition "
                     "with timestamps, else JSON)")
    out.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the end-of-run Prometheus exposition")
    out.add_argument("--timeline", metavar="PATH", default=None,
                     help="write the merged Perfetto timeline JSON")
    out.add_argument("--window-ms", type=float, default=50.0, metavar="MS",
                     help="telemetry window width (default 50 ms)")
    parser.add_argument("--log-level", default=None,
                        help="stderr logging for repro.* (e.g. INFO)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro telemetry``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    install_log_handler(args.log_level, parser)
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")

    obs = Observability(
        ObservabilityConfig(
            telemetry=True,
            window_us=args.window_ms * 1e3,
            slo_policies=build_policies(args),
        )
    )

    if args.replicas > 1:
        from repro.cluster.chaos import ChaosConfig, run_chaos

        config = ChaosConfig(
            replicas=args.replicas,
            strategy=args.strategy,
            model=args.model,
            node=args.node,
            gpus=args.gpus,
            layers=args.layers,
            num_requests=args.requests,
            rate=args.rate,
            batch_size=args.batch,
            crashes=args.crashes,
            partitions=args.partitions,
            seed=args.seed,
            record_trace=True,
        )
        report = run_chaos(config, observability=obs)
        print(report.describe())
        trace, traces = None, report.result.traces
        status = 0 if report.ok else 1
    else:
        from repro.serving.api import serve

        model, node = resolve_model_node(args)
        result = serve(
            model,
            node,
            strategy=args.strategy,
            workload=args.workload,
            arrival_rate=args.rate,
            num_requests=args.requests,
            batch_size=args.batch,
            seed=args.seed,
            record_trace=True,
            overload=overload_config_from_args(args),
            observability=obs,
        )
        print(result.summary())
        trace, traces = result.trace, ()
        status = 0

    want_report = args.report or not (args.report or args.alerts)
    want_alerts = args.alerts or not (args.report or args.alerts)
    if want_report:
        print()
        print(obs.critical_path(trace, traces=traces).describe())
    if want_alerts:
        print()
        print(obs.slo.alert_table())
    if args.series_out:
        obs.save_series(args.series_out)
        print(f"windowed series written to {args.series_out}")
    if args.metrics_out:
        obs.save_prometheus(args.metrics_out)
        print(f"prometheus metrics written to {args.metrics_out}")
    if args.timeline:
        counts = obs.save_merged_trace(args.timeline, trace=trace, traces=traces)
        print(
            f"merged timeline written to {args.timeline} "
            f"({counts['kernel']} kernels, {counts['span']} span rows, "
            f"{counts['instant']} instants)"
        )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro
    sys.exit(main())
