"""The benchmark's workloads and the regime each one must stay in.

Every workload is a paper trace preset (``repro.traces.synthetic``)
replayed through the public ``SimulatedSSD`` calls that
``repro.experiments.runner.run_simulation`` makes.  The first
``warm_fraction`` of the trace's expected duration is replayed before
measurement starts (workload-dependent preconditioning, as in SNIA's
steady-state methodology), so the measured window sits in the GC regime
the workload was chosen for instead of the fresh-device transient.

A regime check fails the run loudly when a workload stops stressing the
layer it exists for: a benchmark that silently drifts out of its regime
would report numbers about a different code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.config import ExperimentConfig, scaled_geometry
from repro.traces.model import WorkloadSpec
from repro.traces.synthetic import make_workload

MB = 1024 * 1024

#: NCQ admission window of the streamed workloads.
QUEUE_DEPTH = 32

#: Slices of the measured window, each timed on its own (even, so the
#: window's midpoint is a slice boundary).
SLICES = 40

#: dloop-gc: GC moved pages per host page written may differ between the
#: two halves of the measured window by at most this share.
GC_LEVEL_TOLERANCE = 0.25
#: dftl-translate: CMT hit ratio ceiling (above it, translation misses
#: no longer dominate).
DFTL_HIT_CEILING = 0.6
#: dftl-translate: GC moved pages per host page written ceiling ("light").
DFTL_GC_CEILING = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    ftl: str
    #: paper trace preset (``repro.traces.synthetic.PAPER_TRACE_NAMES``)
    preset: str
    #: paper capacity point, shrunk 1/16 by ``scaled_geometry``
    paper_gb: float
    #: ``SimulatedSSD.precondition`` fill fraction
    fill: float
    footprint_mb: int
    #: requests in the whole trace (warm-up plus measured window)
    requests: int
    #: share of the expected trace duration replayed before measuring
    warm_fraction: float
    #: streamed replay through the NCQ window, else the materialized list
    stream: bool
    #: subscribe the four conformance probes for the measured window
    observed: bool = False

    def spec(self, seed: int) -> WorkloadSpec:
        return make_workload(self.preset, self.requests, self.footprint_mb * MB, seed=seed)

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            geometry=scaled_geometry(self.paper_gb), ftl=self.ftl, precondition_fill=self.fill
        )

    def pauses_us(self, spec: WorkloadSpec) -> List[float]:
        """Simulated times at which the replay pauses, in µs.

        The first ends the warm-up; the others cut the measured window
        into ``SLICES`` slices (the last one drains the queue), and the
        middle one splits it into halves.  All come from the preset's
        mean arrival rate, not from the generated trace, so they are
        fixed per workload and seed-free, and stay clear of the trace's
        last arrival.
        """
        duration = spec.num_requests * spec.mean_interarrival_us
        warm = duration * self.warm_fraction
        return [warm + (duration - warm) * k / SLICES for k in range(SLICES)]


# Why these sizes (the reason each workload exists is in BENCHMARK.json):
# * DLOOP: GC cost depends sharply on footprint and fill.  With the
#   preset's 96 MB footprint at 0.8 fill, even 64 blocks/plane moves
#   ~500 pages per host page.  A 16 MB footprint on a 0.85-filled
#   64-blocks/plane device instead reaches a steady state (~0.4 pages
#   moved per host page) after
#   ~50 k requests, so the warm-up ends there and the measured window
#   is the next ~100 k requests (enough that the response-time
#   percentiles vary little from seed to seed).
# * DFTL: an 8 GB-equivalent device at 0.5 fill keeps data GC light for
#   25 k tpcc requests: its GC passes reclaim blocks that hold almost
#   no valid pages.
# * FAST: its log blocks come from the 3 % extra blocks, so once they
#   fill, merges run continuously at any capacity.
_DLOOP = dict(
    ftl="dloop", preset="financial1", paper_gb=4.0, fill=0.85, footprint_mb=16,
    requests=155_000, warm_fraction=0.355, stream=True,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="dloop-gc", **_DLOOP),
        Workload(name="dloop-observed", observed=True, **_DLOOP),
        Workload(
            name="dftl-translate", ftl="dftl", preset="tpcc", paper_gb=8.0, fill=0.5,
            footprint_mb=96, requests=25_000, warm_fraction=0.2, stream=False,
        ),
        Workload(
            name="fast-merge", ftl="fast", preset="build", paper_gb=4.0, fill=0.7,
            footprint_mb=32, requests=40_000, warm_fraction=0.2, stream=False,
        ),
    )
}


def regime_failures(workload: Workload, layer: dict, halves) -> List[str]:
    """Reasons ``workload`` left its regime (empty when it is in it).

    ``layer`` holds the measured window's per-layer counts;
    ``halves`` the GC moved-per-host-page of its two halves.
    """
    failures = []
    if workload.name == "dloop-gc":
        first, second = halves
        if not layer["perf.kernel_active"]:
            failures.append("DLOOP batch kernel is not active")
        if first <= 0.0 or abs(second / first - 1.0) > GC_LEVEL_TOLERANCE:
            failures.append(
                f"GC moved/host page not level across halves: {first:.4f} then {second:.4f}"
            )
    elif workload.name == "dloop-observed":
        if layer["perf.kernel_active"]:
            failures.append("DLOOP batch kernel stayed active with subscribers attached")
        if not layer["obs.exercised"]:
            failures.append("conformance probes scored no events")
    elif workload.name == "dftl-translate":
        if layer["cmt.hit_ratio"] >= DFTL_HIT_CEILING:
            failures.append(f"CMT hit ratio {layer['cmt.hit_ratio']:.3f} >= {DFTL_HIT_CEILING}")
        if layer["gc.moved_per_host_page"] >= DFTL_GC_CEILING:
            failures.append(
                f"GC not light: {layer['gc.moved_per_host_page']:.4f} moved/host page"
            )
    elif workload.name == "fast-merge":
        if layer["fast.full_merges"] <= 0:
            failures.append("FAST ran no full merges")
    return failures
