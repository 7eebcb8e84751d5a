"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run, so set-up time and
peak memory are per run and process-global program state (the batch-id
counter) starts clean every time.  The last line of standard output is one
JSON object describing the run.

Modes:

* ``plain``    — no instrumentation; every end-to-end metric comes from here;
* ``wrapped``  — the layer wrappers of :mod:`tracer` installed before the
  program is built; gives the per-layer host-time breakdown;
* ``recorded`` — the program's own kernel trace on (``record_trace=True``);
  gives the simulated critical-path shares.

All three must produce the same outcome fingerprint.

    python3 perfbench/child.py --workload decode_steady --seed 1 --mode plain
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _counters(key: str, obj) -> dict:
    """The program's own counters of one captured instance."""
    if key == "Engine":
        return {"events": obj.events_processed, "pending": obj.pending}
    if key == "Host":
        return {"launches": obj.launches_issued}
    if key == "TimelineExecutor":
        return {"replays": obj.timeline_replays, "bails": obj.timeline_bails}
    if key == "LigerRuntime":
        s = obj.stats
        return {"rounds": s.rounds_launched, "kernels": s.kernels_launched,
                "pieces": s.decomposed_pieces, "window": s.total_window,
                "fill": s.total_fill}
    if key == "SchedulePlanCache":
        return {"hits": obj.hits, "misses": obj.misses,
                "evictions": obj.evictions}
    if key == "FunctionAssembler":
        return {"hits": obj.cache_hits, "misses": obj.cache_misses}
    if key == "Router":
        return {"rejected": obj.rejected_completions,
                "unhealthy": obj.unhealthy_dispatches}
    raise KeyError(key)


def _layer_names() -> tuple:
    from tracer import LAYERS

    return tuple(dict.fromkeys(layer for layer, *_ in LAYERS)) + ("bench",)


#: Every layer that reports a ``self_share``; ``bench`` is ``run()`` time
#: outside every wrapped layer.
LAYER_NAMES = _layer_names()


def _snapshot(tracer) -> dict:
    from tracer import CAPTURED

    return {
        id(obj): _counters(key, obj)
        for _, key in CAPTURED
        for obj in tracer.instances(key)
    }


def _delta(tracer, key: str, before: dict) -> dict:
    """Sum over every instance of ``key`` of its counters' growth since
    ``before`` (instances built during the run start from zero)."""
    total: dict = {}
    for obj in tracer.instances(key):
        now = _counters(key, obj)
        base = before.get(id(obj), {})
        for name, value in now.items():
            total[name] = total.get(name, 0) + value - base.get(name, 0)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, before: dict, built, outcomes, submitted) -> tuple:
    """Per-layer metrics and the wrapped-vs-program cross-checks."""
    calls: dict = {}
    self_ns: dict = {}
    method_calls: dict = {}
    for (layer, qualname), (n, own) in zip(tracer.names, tracer.per_name()):
        calls[layer] = calls.get(layer, 0) + n
        self_ns[layer] = self_ns.get(layer, 0) + own
        key = (layer, qualname.rsplit(".", 1)[1])
        method_calls[key] = method_calls.get(key, 0) + n

    def count(layer: str, *methods: str) -> int:
        return sum(method_calls.get((layer, m), 0) for m in methods)

    def delta(key: str) -> dict:
        return _delta(tracer, key, before)

    engine, host = delta("Engine"), delta("Host")
    timeline, runtime = delta("TimelineExecutor"), delta("LigerRuntime")
    cache, assembly = delta("SchedulePlanCache"), delta("FunctionAssembler")
    router = delta("Router")

    first_dispatch: dict = {}
    for batch in submitted:
        for r in batch.requests:
            if r.dispatched_at is not None:
                prev = first_dispatch.get(r.rid)
                if prev is None or r.dispatched_at < prev:
                    first_dispatch[r.rid] = r.dispatched_at
    done = [o for o in outcomes if o.state == "completed"]
    waited = sum(first_dispatch[o.rid] - o.arrival for o in done
                 if o.rid in first_dispatch)
    latency = sum(o.completion - o.arrival for o in done)

    lookups = count("core.plan_cache", "get")
    ff_calls = count("sim.timeline", "fast_forward")
    m = {
        "sim.engine.events": engine.get("events", 0),
        "sim.engine.schedule_calls": count(
            "sim.engine", "schedule", "schedule_at", "schedule_many"),
        "sim.gpu.submit_calls": count("sim.gpu", "submit"),
        "sim.gpu.refresh_calls": count("sim.gpu", "_reschedule", "refresh_rates"),
        "sim.host.launches": count("sim.host", "launch_kernel"),
        "sim.contention.slowdowns_calls": count("sim.contention", "slowdowns"),
        "sim.timeline.fast_forward_calls": ff_calls,
        "sim.timeline.replays": timeline.get("replays", 0),
        "sim.timeline.bails": timeline.get("bails", 0),
        "sim.timeline.replay_ratio": _ratio(timeline.get("replays", 0), ff_calls),
        "core.runtime.rounds": count("core.runtime", "_launch_round"),
        "core.runtime.kernels": runtime.get("kernels", 0),
        "core.runtime.fill_fraction": _ratio(
            runtime.get("fill", 0.0), runtime.get("window", 0.0)),
        "core.runtime.decomposed_pieces": runtime.get("pieces", 0),
        "core.plan_cache.lookups": lookups,
        "core.plan_cache.hit_rate": _ratio(cache.get("hits", 0), lookups),
        "core.plan_cache.evictions": cache.get("evictions", 0),
        "core.assembly.hit_rate": _ratio(
            assembly.get("hits", 0),
            assembly.get("hits", 0) + assembly.get("misses", 0)),
        "serving.session.submits": count("serving.session", "submit"),
        "serving.session.queue_wait_share": _ratio(waited, latency),
        "cluster.router.dispatches": count("cluster.router", "dispatch"),
        "cluster.router.rejected_completions": router.get("rejected", 0),
        "cluster.router.unhealthy_dispatches": router.get("unhealthy", 0),
        "faults.retries": built.failovers(),
        "faults.shed": sum(1 for o in outcomes if o.state == "shed"),
        "obs.telemetry.pumps": count("obs.telemetry", "pump"),
    }
    for layer in ("core.scheduler", "core.policy", "core.decomposition",
                  "core.assembly", "profiling.profiler", "parallel.strategy"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
    # Self times as shares of the traced run() (they sum to 1): a layer a
    # workload never enters reads 0, not a constant time in seconds.
    traced_ns = sum(self_ns.values())
    for layer in LAYER_NAMES:
        m[f"{layer}.self_share"] = _ratio(self_ns.get(layer, 0), traced_ns)
    m["bench.traced_run_s"] = traced_ns / 1e9

    wrapped_events = (tracer.handles_created - tracer.handles_cancelled
                      + sum(v["pending"] for v in before.values() if "pending" in v)
                      - sum(_counters("Engine", e)["pending"]
                            for e in tracer.instances("Engine")))
    checks = [
        ("core.plan_cache.lookups", lookups,
         cache.get("hits", 0) + cache.get("misses", 0),
         "SchedulePlanCache.get calls vs hits + misses"),
        ("sim.engine.events", wrapped_events, engine.get("events", 0),
         "handles made by Engine.schedule* minus live cancels and pending, "
         "vs Engine.events_processed"),
        ("core.runtime.rounds", m["core.runtime.rounds"],
         runtime.get("rounds", 0),
         "LigerRuntime._launch_round calls vs RuntimeStats.rounds_launched"),
        ("sim.host.launches", m["sim.host.launches"], host.get("launches", 0),
         "Host.launch_kernel calls vs Host.launches_issued"),
    ]
    cross = [
        {"metric": name, "wrapped": w, "program": p, "gap": p - w,
         "match": w == p, "what": what}
        for name, w, p, what in checks
    ]
    return m, cross


def critical_path_shares(traces) -> dict:
    """Simulated makespan shares over every (replica, GPU) lane."""
    from repro.obs import analysis

    # Only the per-lane partition is needed.  The backward path walk scans
    # every kernel per hop (quadratic: ~2 min on decode_steady), so it is
    # stubbed out for this one call.
    walk = analysis._walk_path
    analysis._walk_path = lambda tagged, t0: []
    try:
        report = analysis.analyze_critical_path(traces=traces)
    finally:
        analysis._walk_path = walk
    parts = {"compute": 0.0, "comm": 0.0, "contention": 0.0, "idle": 0.0}
    for lane in report.per_gpu:
        parts["compute"] += lane.compute_us
        parts["comm"] += lane.comm_us
        parts["contention"] += lane.contention_us
        parts["idle"] += lane.idle_us
    total = sum(parts.values())
    return {f"sim.gpu.{k}_share": _ratio(v, total) for k, v in parts.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "wrapped", "recorded"),
                    default="plain")
    ap.add_argument("--spans-out", default=None,
                    help="where the wrapped mode writes its raw spans (.npz)")
    args = ap.parse_args(argv)

    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = time.process_time()
    inputs = workload.make_inputs(args.seed)
    gen_cpu_s = time.process_time() - start

    tracer = None
    submitted: list = []
    if args.mode == "wrapped":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        from repro.serving.session import ServingSession

        traced_submit = ServingSession.submit

        def submit(session, batch):
            submitted.append(batch)
            return traced_submit(session, batch)

        ServingSession.submit = submit

    built = workload.build(inputs, record_trace=args.mode == "recorded")
    # Interpreter start-up, imports and construction; not input generation.
    setup_s = time.process_time() - gen_cpu_s - built.input_cpu_s

    run = built.run
    if tracer is not None:
        before = _snapshot(tracer)
        tracer.active = True
        run = tracer.wrap("bench", "Benchmark.run", built.run)
    run_start = time.process_time()
    run()
    run_cpu_s = time.process_time() - run_start
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    engine = built.engine
    outcomes = built.outcomes()
    checks = metrics.check_outcomes(outcomes) + built.invariants()
    completed = sum(1 for o in outcomes if o.state == "completed")
    out = {
        "mode": args.mode,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "run_cpu_s": run_cpu_s,
        "sim_s": engine.now / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes),
        "completed": completed,
        "checks": [list(c) for c in checks],
        "fingerprint": metrics.fingerprint(
            outcomes, engine.now, engine.events_processed),
    }
    if all(held for _, held, _ in checks):
        out["sim"] = metrics.simulated_metrics(outcomes)
        out["sim_tpot_p50_ms"] = metrics.tpot_p50_ms(outcomes)
    if tracer is not None:
        out["layers"], out["cross_checks"] = layer_metrics(
            tracer, before, built, outcomes, submitted)
        if args.spans_out:
            tracer.save(args.spans_out)
    if args.mode == "recorded":
        out["shares"] = critical_path_shares(built.traces())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
