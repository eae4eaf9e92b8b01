"""Benchmark of the DLOOP simulator: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload dloop-gc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

``--trace 0`` repeats rounds (set-up, warm-up, measured window) for
about ``--seconds`` host seconds and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
failed correctness or regime check prints the reasons to standard
error and exits with status 1 and no metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fewest rounds per ``--trace 0`` run; every reported time is a median
#: over rounds (setup_s over their set-ups).
MIN_ROUNDS = 3

#: (name, unit) of the end-to-end metrics in the JSON result.
END_TO_END = (
    ("req_per_s", "1/s"),
    ("rtf", "us/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_resp_mean_us", "us"),
    ("sim_resp_p90_us", "us"),
    ("sim_resp_p99_us", "us"),
    ("sim_waf", "ratio"),
)

#: (name, unit) of the per-layer metrics in the JSON result.  The self
#: times of cmt and obs are printed but left out here: they are exactly
#: zero on the workloads that bypass those layers.
PER_LAYER = (
    ("traces.self_s", "s"),
    ("traces.calls", "count"),
    ("controller.self_s", "s"),
    ("ftl.write.self_s", "s"),
    ("ftl.write.calls", "count"),
    ("ftl.read.self_s", "s"),
    ("ftl.read.calls", "count"),
    ("cmt.calls", "count"),
    ("gc.self_s", "s"),
    ("gc.calls", "count"),
    ("flash.self_s", "s"),
    ("flash.calls", "count"),
    ("metrics.self_s", "s"),
    ("obs.events", "count"),
    ("setup.build_s", "s"),
    ("setup.precondition_s", "s"),
    ("setup.generate_s", "s"),
    ("setup.warmup_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("sim.events", "count"),
    ("sim.events_per_req", "ratio"),
    ("controller.peak_outstanding", "count"),
    ("cmt.hit_ratio", "ratio"),
    ("cmt.lookups", "count"),
    ("cmt.dirty_evictions", "count"),
    ("gc.passes", "count"),
    ("gc.moved_per_host_page", "ratio"),
    ("gc.copyback_ratio", "ratio"),
    ("gc.wasted_pages", "count"),
    ("fast.switch_merges", "count"),
    ("fast.partial_merges", "count"),
    ("fast.full_merges", "count"),
    ("flash.reads_per_host_page", "ratio"),
    ("flash.programs_per_host_page", "ratio"),
    ("flash.erases", "count"),
    ("flash.interplane_copies", "count"),
    ("flash.channel_busy_frac", "ratio"),
    ("flash.plane_busy_frac", "ratio"),
    ("flash.sdrpp", "ln-count"),
    ("perf.kernel_active", "flag"),
)


def _fail(reasons, attempted: int = 1, failed: int = 0) -> int:
    for reason in reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": failed, "metrics": {}}))
    return 1


def _result(attempted: int, failed: int, values: dict, units) -> None:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>18.6g} {unit}")


def _untraced(workload, seed: int, seconds: float) -> int:
    from replay import run_round

    # Rounds run until the next one would pass --seconds, but at least
    # MIN_ROUNDS; the metrics are medians, so the count shifts no value.
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()  # every round starts from the same collected heap
        rounds.append(run_round(workload, seed))
        per_round = (time.perf_counter() - start) / len(rounds)
        if len(rounds) >= MIN_ROUNDS and per_round * (len(rounds) + 1) > seconds:
            break

    first = rounds[0]
    reasons = [f for r in rounds for f in r.failures]
    for i, r in enumerate(rounds[1:], start=2):
        if r.sim != first.sim or r.layer != first.layer:
            reasons.append(f"round {i} simulated outputs differ from round 1")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if reasons:
        return _fail(reasons, attempted, failed)

    # Host time is the process's CPU time at the reference host speed
    # (replay.py): the replay is single-threaded and does no I/O, so
    # CPU time leaves out only the spells when other processes (or, on
    # a VM, other guests) hold the core, and the speed probes take out
    # the drift of the core's own speed.
    window_s = statistics.median(r.window_norm_s for r in rounds)
    values = dict(first.sim)
    values["req_per_s"] = first.sim["window_requests"] / window_s
    values["rtf"] = first.sim["sim_window_us"] / window_s
    values["setup_s"] = statistics.median(r.setup_norm_s for r in rounds)
    # The unnormalised rates, for reading against the normalised ones.
    values["cpu_req_per_s"] = first.sim["window_requests"] / statistics.median(
        sum(r.slice_cpu_s) for r in rounds)
    values["wall_req_per_s"] = first.sim["window_requests"] / statistics.median(r.replay_s for r in rounds)
    values["host_speed"] = statistics.median(r.window_speed for r in rounds)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["error_rate"] = failed / attempted
    units = dict(END_TO_END, sim_resp_p50_us="us", error_rate="ratio", cpu_req_per_s="1/s",
                 wall_req_per_s="1/s", host_speed="ratio")
    _table(
        f"{workload.name} seed {seed}: {len(rounds)} rounds, "
        f"{first.sim['sim_resp_samples']} response samples per window, CMT entries after "
        f"precondition: {first.cmt_entries_after_precondition}",
        [(name, values[name], units[name]) for name in units],
    )
    _result(attempted, failed, values, END_TO_END)
    return 0


def _traced(workload, seed: int) -> int:
    from layers import LAYERS, LayerTracer
    from replay import run_round

    base = run_round(workload, seed)
    tracer = LayerTracer()
    traced = run_round(workload, seed, tracer)
    reasons = base.failures + traced.failures
    if traced.sim != base.sim or traced.layer != base.layer:
        reasons.append("traced run's simulated outputs differ from the untraced run's")
    if reasons:
        return _fail(reasons, base.attempted + traced.attempted, base.failed + traced.failed)

    values = dict(base.layer)
    values.update(traced.setup)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer]
        values[f"{layer}.calls"] = tracer.calls[layer]
    values["obs.events"] = tracer.calls["obs"]
    values["bench.trace_overhead"] = traced.replay_s / base.replay_s
    print(f"{workload.name} seed {seed}: measured window {base.replay_s:.3f} s untraced, "
          f"{traced.replay_s:.3f} s traced")
    print("  layer        self_s (s)        calls   (traces: whole trace; others: measured window)")
    for layer in LAYERS:
        print(f"  {layer:<10} {tracer.self_s[layer]:>12.6f} {tracer.calls[layer]:>12d}")
    _table("set-up split and tracing overhead",
           [(name, values[name], "s") for name in sorted(traced.setup)]
           + [("bench.trace_overhead", values["bench.trace_overhead"], "ratio")])
    _table("measured-window counts (untraced run)", [(name, value, "") for name, value in base.layer.items()])
    _result(base.attempted + traced.attempted, base.failed + traced.failed, values, PER_LAYER)
    return 0


def _all(seed: int, seconds: int) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"FAILED: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return _all(args.seed, int(args.seconds))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            return _traced(workload, args.seed)
        return _untraced(workload, args.seed, args.seconds)
    except Exception as exc:  # a crash is a failed run, reported as such
        import traceback

        traceback.print_exc()
        return _fail([f"{type(exc).__name__}: {exc}"])


if __name__ == "__main__":
    # Single-threaded: keep numpy's BLAS pools from spawning workers.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
