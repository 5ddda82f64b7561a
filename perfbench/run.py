"""The benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py            # every workload, default seeds

An untraced run (``--trace 0``) sets the workload up three or more
times, computes the reference answers, then runs the timed closed loop
and checks every op.  The loop runs in slices with a host probe
between slices, and the run reports over its calmest slices that hold
``--seconds`` of op time and the workload's minimum op count
(``workloads.Phase``); ``setup_s`` is the median of the calm set-ups.
Every reported time is scaled to the reference host by the probes
around it (``harness.host_factor``); the figures as measured are
printed beside them and kept in the record.
A traced run (``--trace 1``) sets up once with the layers wrapped,
runs the quota at half the time untraced, then the same number of
slices traced, and reports per-layer self times, exact counts and the
tracing overhead.

Report lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and
the full result are written under ``.perfbench-work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (WORK, HostGate, beyond, host_factor,  # noqa: E402
                     now, percentile, program_present, use_program,
                     visible_cpus)
from metrics import (END_TO_END, EXTRA, MOVES, PER_LAYER,  # noqa: E402
                     SPAN_METRIC)

#: set-up runs at least 3 and at most 15 times, and stops once the
#: reps add up to SETUP_SECONDS
SETUP_REPS = (3, 15)
SETUP_SECONDS = 1.0
#: a traced phase runs at most this many slices (spans stay in memory)
TRACED_SLICES = 16


def pin_one_cpu() -> list[int]:
    """Run this process and every process it starts on one CPU;
    returns the CPUs that were visible before.

    Every workload is a closed loop with one request in flight, so its
    processes take turns and one CPU serves them all.  Spread over two
    vCPUs of a shared host, each request waits for a cross-CPU wakeup
    that a busy host delays: a 10k/s lookup loop then runs at 3-5k/s
    with millisecond tails, and the figures follow the neighbours'
    load rather than the program."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


def environment(visible: list[int], gate: HostGate) -> dict:
    return {"visible_cpus": len(visible), "pinned_cpus": visible_cpus(),
            "fastest_probe_ms": gate.fastest / 1e6,
            "python": platform.python_version(),
            "platform": platform.platform()}


def calm_median(reps: list[tuple[float, int]]) -> tuple[float, float]:
    """Median set-up time of the calmer half of the reps, ranked by the
    slower of the host probes around each (two of three reps): as
    measured, and scaled to the reference host rep by rep."""
    calm = sorted(reps, key=lambda rep: rep[1])[:(len(reps) + 1) // 2]
    return (statistics.median(took for took, _ in calm),
            statistics.median(took / host_factor([host])
                              for took, host in calm))


def tracing_overhead(plain, traced) -> float:
    """One minus traced over untraced throughput: slice ``i`` of the
    traced phase runs as many ops as slice ``i`` of the untraced one
    (the same ops for ``churn_reload``, which rewinds in between), and
    the ratio of their times, each scaled by its own host probe, is the
    median over the calmer half of the pairs."""
    n = min(len(plain.slices), len(traced.slices))
    order = sorted(range(n), key=lambda i: max(plain.slices[i][5],
                                               traced.slices[i][5]))
    ratios = [traced.slices[i][4] * plain.slices[i][5]
              / (plain.slices[i][4] * traced.slices[i][5])
              for i in order[:max(1, n // 2)]]
    return 1 - 1 / statistics.median(ratios)


def latency_metrics(name: str, sample, failures: list | None) -> dict:
    """The workload's latency percentiles (``op_p50_us`` and its
    ``EXTRA`` ones).  With a ``failures`` list, each is held to the
    sample rule: at least ten samples beyond every named percentile."""
    out = {}
    wanted = ["op_p50_us"] + [m for m, _ in EXTRA[name]
                              if m.endswith("_us")]
    for metric in wanted:
        kind, pct, _ = metric.split("_")
        q = int(pct[1:]) / 100
        ordered = sorted(sample.lat if kind == "op" else sample.reads)
        out[f"{kind}_samples"] = len(ordered)
        if failures is not None and beyond(len(ordered), q) < 10:
            failures.append(f"{metric}: only {beyond(len(ordered), q)} "
                            f"samples beyond the percentile")
        out[metric] = percentile(ordered, q) / 1e3
    return out


def layer_metrics(wl, spans_report: dict, ops: int) -> dict:
    """Per-layer metrics from the merged trace plus the run's exact
    counts."""
    out = {name: 0.0 for name in PER_LAYER}
    scale = {"ms": 1e6, "us": 1e3, "s": 1e9}
    for span, ns in spans_report["layer_ns"].items():
        metric = SPAN_METRIC.get(span)
        if metric:
            out[metric] += ns / scale[PER_LAYER[metric][0]] / ops
    if not spans_report["layer_ns"].get("core.map"):
        # read-only workloads map only while building their snapshots
        out["core.map_ms"] = spans_report["other_ns"].get(
            "core.map", 0) / 1e6
    calls = spans_report["calls"]
    out["store.build_s"] = sum(calls.get("store.build", ())) / 1e9
    for span, metric in (("store.open", "store.open_ms"),
                         ("backend.connect", "backend.connect_ms")):
        times = calls.get(span, ())
        out[metric] = sum(times) / len(times) / 1e6 if times else 0.0
    out["netsim.apply_ms"] = sum(calls.get("netsim.apply", ())) / 1e6 / ops
    out["store.snapshot_mb"] = getattr(wl, "snapshot_bytes", 0) / 2**20
    counts = wl.counts
    hits = counts.get("n_cache_hits", 0)
    misses = counts.get("n_cache_misses", 0)
    out.update({
        "parser.tokens": counts.get("parser.tokens", 0),
        "graph.links": counts.get("graph.links", 0),
        "core.routes": counts.get("core.routes", 0),
        "cache.hits": hits, "cache.misses": misses,
        "cache.invalidations": counts.get("n_cache_invalidations", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "fsm.hits": counts.get("n_fsm_hits", 0),
        "fsm.misses": counts.get("n_fsm_misses", 0),
        "shard.federated_ratio": counts.get("federated", 0) / max(
            1, counts.get("hits", 0)),
        "backend.requests": counts.get("backend_requests", 0),
        "backend.calls_per_op": counts.get("backend_requests", 0) / max(
            1, counts.get("lookups", 0)),
        "incremental.remapped": counts.get("remapped", 0),
        "incremental.reused": counts.get("reused", 0),
        "incremental.fallbacks": counts.get("fallbacks", 0),
        "incremental.remapped_ratio": counts.get("remapped", 0) / max(
            1, counts.get("remapped", 0) + counts.get("reused", 0)),
        "store.bytes_written": counts.get("bytes_written", 0),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False, visible: list[int] = ()) -> dict:
    """Run one workload; returns the full result record."""
    from tracing import Tracer, analyse, load, merge, write_tsv
    from workloads import WORKLOADS, Sample

    cls = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer("client") if trace else None
    gate = HostGate()
    wl = cls(seed, work, toy)
    failures: list[str] = []
    setups: list[tuple[float, int]] = []  # (seconds, host probe ns)
    phases = []
    walls = {}  # seconds each step of the run took, for the record
    # the untraced phase's quota: op time and op count
    quota = (seconds / 2, max(wl.window, wl.min_ops // 4)) if trace \
        else (seconds, wl.min_ops)
    try:
        if tracer:
            tracer.install()
        while True:
            before = gate.probe()
            t0 = now()
            wl.setup()
            took = (now() - t0) / 1e9
            setups.append((took, max(before, gate.probe())))
            if trace or (len(setups) >= SETUP_REPS[0] and (
                    sum(t for t, _ in setups) >= SETUP_SECONDS
                    or len(setups) >= SETUP_REPS[1])):
                break
            wl.teardown()
        if tracer:
            tracer.uninstall()
        mark = now()
        walls["setup"] = sum(t for t, _ in setups)
        wl.prepare()
        gc.collect()
        walls["prepare"] = (now() - mark) / 1e9
        mark = now()
        phases.append(wl.measure(*quota, gate))
        walls["measure"] = (now() - mark) / 1e9
        if trace:
            wl.rewind()
            gc.collect()
            tracer.install()
            wl.tracer = tracer
            wl.retrace()
            phases.append(wl.measure(0, 0, gate, slices=min(
                TRACED_SLICES, len(phases[0].slices))))
            tracer.uninstall()
        rss = wl.rss_mb()
        mark = now()
        failures += wl.finish()
        walls["finish"] = (now() - mark) / 1e9
    finally:
        wl.teardown()
    main = phases[0]
    chosen = main.calmest(int(quota[0] * 1e9), quota[1])
    sample = Sample(main, chosen)
    attempted = sum(p.ops + p.warm for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        failures += phase.errors
    setup_measured, setup_scaled = calm_median(setups)
    # a traced run's untraced phase is too short for the rule; its
    # latencies are for the record only
    latencies = latency_metrics(name, sample, None if trace else failures)
    measured = {"setup_s": setup_measured,
                "ops_per_s": sample.ops / (sample.elapsed_ns / 1e9),
                **{k: v for k, v in latencies.items() if k.endswith("_us")}}
    # the reported figures: times scaled to the reference host
    factor = sample.host_factor
    e2e = {"setup_s": setup_scaled,
           "ops_per_s": measured["ops_per_s"] * factor,
           "rss_mb": rss,
           "fail_ratio": failed / attempted}
    e2e.update({k: v / factor if k.endswith("_us") else v
                for k, v in latencies.items()})
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "toy": toy,
              "trace": int(trace), "loop": wl.loop, "scale": wl.scale,
              "setup_reps": setups, "e2e": e2e, "measured": measured,
              "host_factor": factor,
              "calm": {"cap": wl.calm_cap, "slices": len(main.slices),
                       "chosen": len(chosen), "op_share": sample.share,
                       "slowest_chosen_probe_ms": sample.host_ns / 1e6,
                       "probes": gate.count,
                       "slice_ops_ns_probe": [(s[1] - s[0], *s[4:])
                                              for s in main.slices]},
              "walls_s": walls,
              "shares": wl.shares, "counts": wl.counts,
              "environment": environment(visible, gate),
              "attempted": attempted,
              "failed": failed}
    if trace:
        processes = [("client", tracer.names, tracer.spans)]
        processes += [load(path) for _, path in wl.trace_files]
        spans = merge(processes)
        report = analyse(spans)
        traced = phases[1]
        layers = layer_metrics(wl, report, max(1, traced.ops))
        share = sum(report["layer_ns"].values()) / max(1, report["root_ns"])
        layers["trace.layer_share"] = share
        layers["trace.overhead_ratio"] = tracing_overhead(main, traced)
        if not 0.9 <= share <= 1.1:
            failures.append(f"layer self times cover {share:.3f} of the "
                            f"traced op time (allowed 0.9-1.1)")
        if report["unattached"]:
            failures.append(f"{report['unattached']} server spans had no "
                            f"enclosing client span")
        record["per_layer"] = layers
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_tsv(spans, str(trace_dir / f"{name}-s{seed}.tsv"))
    shutil.rmtree(work, ignore_errors=True)
    record["failures"] = failures
    record["correct"] = not failures and failed == 0
    return record


def print_report(record: dict) -> None:
    name = record["workload"]
    env = record["environment"]
    print(f"# {name} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} loop='{record['loop']}' "
          f"scale={json.dumps(record['scale'])} "
          f"visible_cpus={env['visible_cpus']} "
          f"pinned_cpus={env['pinned_cpus']} python={env['python']} "
          f"platform={env['platform']}")
    calm = record["calm"]
    print(f"# calm slices {calm['chosen']}/{calm['slices']} "
          f"({calm['op_share']:.0%} of timed ops), slowest probe "
          f"{calm['slowest_chosen_probe_ms']:.2f} ms, fastest "
          f"{env['fastest_probe_ms']:.2f} ms")
    e2e = record["e2e"]
    for metric, (unit, _) in END_TO_END.items():
        print(f"{name}/{metric} {e2e[metric]:.6g} {unit}")
    for metric, unit in EXTRA[name]:
        print(f"{name}/{metric} {e2e[metric]:.6g} {unit}")
    print(f"# as measured, before scaling by host factor "
          f"{record['host_factor']:.4f}: " + ", ".join(
              f"{metric} {value:.6g}"
              for metric, value in record["measured"].items()))
    samples = {k: v for k, v in e2e.items() if k.endswith("_samples")}
    print(f"# samples {json.dumps(samples)} setup_reps_s "
          f"{json.dumps([round(s, 4) for s, _ in record['setup_reps']])}")
    print(f"# mode shares {json.dumps(record['shares'])}")
    print(f"# exact counts {json.dumps(record['counts'])}")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name}/{metric} {value:.6g} {PER_LAYER[metric][0]}")
    if record["trace"]:
        for layers, moves, workloads in MOVES:
            if name in workloads:
                print(f"# predicts: {', '.join(layers)} -> "
                      f"{', '.join(moves) or 'no end-to-end metric'}")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {m: {"value": record["per_layer"][m], "unit": unit}
                   for m, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {m: {"value": record["e2e"][m], "unit": unit}
                   for m, (unit, _) in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Every workload at its default seed, each in its own process."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print(f"# {name}: exited {out.returncode}")
            summary["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pathalias end-to-end benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs and op counts (smoke test only)")
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: no program sources (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    use_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    visible = pin_one_cpu()
    seed = WORKLOADS[args.workload].default_seed if args.seed is None \
        else args.seed
    record = run_workload(args.workload, seed, args.seconds,
                          bool(args.trace), args.toy, visible)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "-toy" if args.toy else ""
    (results / f"{args.workload}-s{seed}-t{args.trace}{tag}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
