"""One benchmark round: set up a device, warm it up, replay the measured window.

The calls are the ones ``repro.experiments.runner.run_simulation``
makes — ``SimulatedSSD(...)``, ``precondition``, then either
``run_stream(io_requests(stream_workload(spec), geometry), queue_depth=…)``
or ``generate`` → ``byte_request`` list → ``run`` — with two pauses
(``until=``) that split the replay into warm-up and the two halves of
the measured window.  At the warm-up boundary the controller's request
stats are swapped for a fresh object and its peak-outstanding mark is
zeroed (the fields ``SimulatedSSD.reset_measurements`` resets, without
rewinding the flash timelines), so response times describe the
measured window only; every other count is a difference of the
device's public counters across the window.

Host time is the process's CPU time, and every timed stretch is
followed by one pass of :func:`speed_probe`, a fixed pure-Python loop.
On a shared host the core's speed drifts (by ±16 % from one round to
the next on a 2-vCPU VM), and it drifts for the probe as for the
replay; dividing by the probe's time cancels the drift (see
:meth:`Round.window_norm_s`).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.conformance.rules import default_probes
from repro.controller.controller import RequestStats
from repro.controller.device import SimulatedSSD
from repro.metrics.sdrpp import sdrpp
from repro.metrics.streaming import StreamingRequestStats
from repro.obs.tracebus import BUS
from repro.perf.kernels import kernel_active
from repro.sim.request import IoOp
from repro.traces.stream import io_requests, stream_workload
from repro.traces.synthetic import generate

from layers import LayerTracer
from workloads import QUEUE_DEPTH, Workload, regime_failures


#: CPU seconds of one :func:`speed_probe` pass on the reference host
#: (a 2-vCPU x86 VM, Python 3.11).  Normalised times are expressed at
#: this host speed.
PROBE_REFERENCE_S = 0.0014


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def step(self, k: int) -> int:
        return (self.x * 31 + self.y + k) & 0xFFFF


def speed_probe() -> float:
    """CPU seconds of one pass of a fixed pure-Python loop.

    The loop mixes what the simulator's hot paths do (dict updates,
    attribute reads, method calls, small-int arithmetic, list appends)
    and is independent of the program, so its time tracks only the
    host's speed.  The cyclic garbage collector is held off while it
    runs, so a collection the program's heap is due for is charged to
    the program, not to the probe.
    """
    clock = time.process_time
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table: Dict[int, int] = {}
        points = [_Point(i, i * 7) for i in range(64)]
        out = []
        acc = 0
        for i in range(3000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            acc += points[i & 63].step(i)
            if not i & 7:
                out.append(acc)
        out.sort()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Round:
    #: CPU seconds of set-up
    setup_s: float
    #: setup.build_s, setup.precondition_s, setup.generate_s, setup.warmup_s
    setup: Dict[str, float]
    #: speed_probe seconds, one after each set-up phase
    setup_probe_s: List[float] = field(default_factory=list)
    #: host wall seconds of each slice of the measured window
    slice_s: List[float] = field(default_factory=list)
    #: CPU seconds of this process in each slice of the measured window
    slice_cpu_s: List[float] = field(default_factory=list)
    #: speed_probe seconds, one after each slice
    slice_probe_s: List[float] = field(default_factory=list)
    #: simulated outputs of the measured window (must repeat exactly)
    sim: Dict[str, float] = field(default_factory=dict)
    #: deterministic per-layer counts of the measured window
    layer: Dict[str, float] = field(default_factory=dict)
    #: host requests in the whole trace, and those that failed
    attempted: int = 0
    failed: int = 0
    cmt_entries_after_precondition: Optional[int] = None
    failures: List[str] = field(default_factory=list)

    @property
    def replay_s(self) -> float:
        """Host wall seconds of the measured window."""
        return sum(self.slice_s)

    @property
    def window_speed(self) -> float:
        """Host speed during the window, relative to the reference host."""
        return _speed(self.slice_probe_s)

    @property
    def window_norm_s(self) -> float:
        """CPU seconds of the measured window at the reference host speed."""
        return sum(self.slice_cpu_s) * self.window_speed

    @property
    def setup_norm_s(self) -> float:
        """CPU seconds of set-up at the reference host speed."""
        return self.setup_s * _speed(self.setup_probe_s)


def _speed(probe_s: List[float]) -> float:
    """How fast the host ran the probes, relative to the reference host."""
    return PROBE_REFERENCE_S * len(probe_s) / sum(probe_s)


def materialize(spec, ssd: SimulatedSSD) -> list:
    """The runner's materialized request list for ``spec``."""
    capacity = ssd.geometry.capacity_bytes
    requests = []
    for r in generate(spec):
        offset = r.offset_bytes % capacity
        size = min(r.size_bytes, capacity - offset)
        op = IoOp.WRITE if r.is_write else IoOp.READ
        requests.append(ssd.byte_request(r.arrival_us, offset, size, op))
    return requests


def _totals(ssd: SimulatedSSD) -> Dict[str, object]:
    """Cumulative public counters of ``ssd``."""
    ftl = ssd.ftl
    flash = ssd.counters
    gc = ftl.gc_stats
    cmt = getattr(ftl, "cmt", None)
    fast = getattr(ftl, "fast_stats", None)
    return {
        "events": ssd.engine.events_processed,
        "reads": flash.reads,
        "programs": flash.programs,
        "erases": flash.erases,
        "copybacks": flash.copybacks,
        "interplane_copies": flash.interplane_copies,
        "plane_ops": list(flash.plane_ops),
        "plane_busy_us": sum(flash.plane_busy_us),
        "channel_busy_us": sum(flash.channel_busy_us),
        "gc_passes": gc.passes,
        "gc_moved": gc.moved_pages,
        "gc_copyback_moves": gc.copyback_moves,
        "gc_wasted": gc.wasted_pages,
        "gc_busy_us": gc.busy_us,
        "cmt_hits": cmt.stats.hits if cmt is not None else 0,
        "cmt_misses": cmt.stats.misses if cmt is not None else 0,
        "cmt_dirty_evictions": cmt.stats.dirty_evictions if cmt is not None else 0,
        "switch_merges": fast.switch_merges if fast is not None else 0,
        "partial_merges": fast.partial_merges if fast is not None else 0,
        "full_merges": fast.full_merges if fast is not None else 0,
    }


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, list):
            out[key] = [a - b for a, b in zip(value, before[key])]
        else:
            out[key] = value - before[key]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_round(
    workload: Workload, seed: int, tracer: Optional[LayerTracer] = None
) -> Round:
    """Set up, warm up and replay one window.

    With ``tracer`` every layer boundary is timed: the trace generator
    from the start, the rest from the warm-up boundary on.
    """
    clock = time.perf_counter
    cpu_clock = time.process_time
    spec = workload.spec(seed)
    config = workload.config()
    geometry = config.geometry
    warm_us, *cuts = workload.pauses_us(spec)
    mid_us = cuts[len(cuts) // 2]

    # Each phase is timed on its own, so the probes between phases stay
    # out of the set-up times.
    probes_s = [speed_probe()]
    t0 = cpu_clock()
    ssd = SimulatedSSD(geometry, config.timing, ftl=config.ftl, **config.build_kwargs())
    build_s = cpu_clock() - t0
    probes_s.append(speed_probe())
    t1 = cpu_clock()
    ssd.precondition(config.precondition_fill)
    precondition_s = cpu_clock() - t1
    probes_s.append(speed_probe())
    cmt = getattr(ssd.ftl, "cmt", None)
    cmt_entries = len(cmt) if cmt is not None else None
    t2 = cpu_clock()
    if workload.stream:
        requests = io_requests(stream_workload(spec), geometry)
        if tracer is not None:
            requests = tracer.iterate(requests)
        generate_s = cpu_clock() - t2
        probes_s.append(speed_probe())
        t3 = cpu_clock()
        ssd.run_stream(requests, queue_depth=QUEUE_DEPTH, until=warm_us)
    else:
        build = materialize if tracer is None else tracer.timed("traces", materialize)
        requests = build(spec, ssd)
        generate_s = cpu_clock() - t2
        probes_s.append(speed_probe())
        t3 = cpu_clock()
        ssd.run(requests, until=warm_us)
    warmup_s = cpu_clock() - t3
    probes_s.append(speed_probe())
    setup_s = build_s + precondition_s + generate_s + warmup_s
    if tracer is not None:
        # Streamed traces are generated during warm-up: the split shows
        # the generator's own (wall) time, which warm-up also holds.
        generate_s = tracer.self_s["traces"]
    result = Round(
        setup_s=setup_s,
        setup={
            "setup.build_s": build_s,
            "setup.precondition_s": precondition_s,
            "setup.generate_s": generate_s,
            "setup.warmup_s": warmup_s,
        },
        setup_probe_s=probes_s,
        cmt_entries_after_precondition=cmt_entries,
    )

    # ---- warm-up boundary: measurement starts here -------------------------
    controller = ssd.controller
    warm_stats = controller.stats
    # The streamed window's reservoir holds every sample: exact percentiles.
    stats = StreamingRequestStats(reservoir_size=spec.num_requests) if workload.stream else RequestStats()
    controller.stats = stats
    controller.peak_outstanding = 0
    before = _totals(ssd)
    probes = default_probes(geometry) if workload.observed else []
    subscribers = [probe if tracer is None else tracer.timed("obs", probe) for probe in probes]
    for fn in subscribers:
        BUS.subscribe(fn)
    try:
        kernel_on = kernel_active(ssd.ftl)
        if tracer is not None:
            tracer.instrument(ssd)
        for until in cuts + [None]:
            start, start_cpu = clock(), cpu_clock()
            end_us = ssd.engine.run(until=until)
            result.slice_s.append(clock() - start)
            result.slice_cpu_s.append(cpu_clock() - start_cpu)
            result.slice_probe_s.append(speed_probe())
            if until == mid_us:
                mid = _totals(ssd)
                mid_written = stats.pages_written
    finally:
        if tracer is not None:
            tracer.restore()
        for fn in subscribers:
            BUS.unsubscribe(fn)

    ssd.verify()
    after = _totals(ssd)
    d = _delta(after, before)
    first = _delta(mid, before)
    second = _delta(after, mid)
    written = stats.pages_written
    window_us = end_us - warm_us

    result.attempted = spec.num_requests
    result.failed = warm_stats.failed_requests + stats.failed_requests
    served = warm_stats.count + stats.count + result.failed
    if served != spec.num_requests:
        result.failures.append(f"{served} requests completed or failed, {spec.num_requests} attempted")

    result.sim = {
        "sim_resp_mean_us": stats.mean_response_us(),
        "sim_resp_p50_us": stats.percentile_us(50),
        "sim_resp_p90_us": stats.percentile_us(90),
        "sim_resp_p99_us": stats.percentile_us(99),
        "sim_resp_samples": stats.count,
        "sim_waf": _ratio(d["programs"] + d["copybacks"] + d["gc_wasted"], written),
        "sim_window_us": window_us,
        "window_requests": stats.count + stats.failed_requests,
        "window_failed": stats.failed_requests,
    }
    for probe in probes:
        verdict = probe.result()
        result.sim[f"conformance.{probe.rule}"] = verdict.score if verdict.score is not None else -1.0

    host_pages = written + stats.pages_read
    lookups = d["cmt_hits"] + d["cmt_misses"]
    result.layer = {
        "sim.events": d["events"],
        "sim.events_per_req": _ratio(d["events"], stats.count + stats.failed_requests),
        "controller.peak_outstanding": controller.peak_outstanding,
        "cmt.hit_ratio": _ratio(d["cmt_hits"], lookups),
        "cmt.lookups": lookups,
        "cmt.dirty_evictions": d["cmt_dirty_evictions"],
        "gc.passes": d["gc_passes"],
        "gc.moved_per_host_page": _ratio(d["gc_moved"], written),
        "gc.copyback_ratio": _ratio(d["gc_copyback_moves"], d["gc_moved"]),
        "gc.wasted_pages": d["gc_wasted"],
        "gc.busy_sim_us": d["gc_busy_us"],
        "fast.switch_merges": d["switch_merges"],
        "fast.partial_merges": d["partial_merges"],
        "fast.full_merges": d["full_merges"],
        "flash.reads_per_host_page": _ratio(d["reads"], host_pages),
        "flash.programs_per_host_page": _ratio(d["programs"], written),
        "flash.erases": d["erases"],
        "flash.interplane_copies": d["interplane_copies"],
        "flash.channel_busy_frac": _ratio(d["channel_busy_us"], geometry.channels * window_us),
        "flash.plane_busy_frac": _ratio(d["plane_busy_us"], geometry.num_planes * window_us),
        "flash.sdrpp": sdrpp(d["plane_ops"]),
        "perf.kernel_active": int(kernel_on),
        "obs.exercised": int(any(p.result().exercised for p in probes)),
    }
    halves = (
        _ratio(first["gc_moved"], mid_written),
        _ratio(second["gc_moved"], written - mid_written),
    )
    result.layer["gc.moved_per_host_page.first_half"] = halves[0]
    result.layer["gc.moved_per_host_page.second_half"] = halves[1]
    result.failures.extend(regime_failures(workload, result.layer, halves))
    return result
