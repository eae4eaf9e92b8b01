"""Kernel/scalar equivalence: ``batch_kernels`` on vs off is bit-identical.

The batch-kernel layer (``repro.perf.kernels``) only engages on the
plain DLOOP FTL with copy-back on, tracing off and no fault injection —
everywhere else the constructor, ``attach_faults()`` or the TraceBus
guard drops the replay back onto the scalar path.  These tests pin the
*contract*, not the engagement: for every FTL × admission mode × queue
depth × fault plan, a replay with ``batch_kernels=True`` must be
bit-identical to ``batch_kernels=False`` — same determinism fingerprint
(final clock repr, flash/GC counters, mapping-table CRCs), same
completed count, same request-stats accumulators down to the last
Welford update and reservoir slot.
"""

from __future__ import annotations

import sys

import pytest

from repro.controller.controller import RequestStats
from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from functools import lru_cache

from repro.ftl.registry import available_ftls, create_ftl
from repro.metrics.streaming import StreamingRequestStats
from repro.perf.fingerprint import engine_fingerprint, ftl_fingerprint
from repro.perf.kernels import DloopKernel
from repro.traces.model import KB, SizeMix, WorkloadSpec
from repro.traces.stream import io_requests, stream_workload


def _geometry() -> SSDGeometry:
    # Small enough for a fast sweep, big enough that GC actually runs
    # (the scalar-fallback seams the kernels must agree with).
    return SSDGeometry(
        channels=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=24,
        pages_per_block=16,
        page_size=512,
        extra_blocks_percent=25.0,
    )


def _spec(geometry: SSDGeometry, n: int = 1200, seed: int = 0xBA7C4) -> WorkloadSpec:
    return WorkloadSpec(
        name="kernel-eq",
        num_requests=n,
        write_fraction=0.7,
        request_rate_per_s=20_000.0,
        size_mix=SizeMix((512, 1024, 2048), (0.5, 0.3, 0.2)),
        footprint_bytes=int(geometry.capacity_bytes * 0.55),
        sequential_fraction=0.2,
        zipf_theta=0.9,
        chunk_bytes=8 * KB,
        align_bytes=512,
        seed=seed,
    )


@lru_cache(maxsize=None)
def _supports_faults(ftl_name: str) -> bool:
    return create_ftl(ftl_name, _geometry(), TimingParams()).fault_injection_supported


FAULTS = {
    "seed": 11,
    "program_fail_rate": 0.01,
    "erase_fail_rate": 0.005,
    "read_error_rate": 0.05,
    "read_uncorrectable_rate": 0.01,
    "program_fails_to_retire": 2,
}


def _stats_snapshot(stats) -> tuple:
    """Bit-exact digest of either request-stats implementation.

    ``repr`` on the floats (not ``==`` on rounded summaries) so a
    single ULP of drift in any Welford update or reservoir slot fails
    the sweep.
    """
    common = (
        stats.pages_read, stats.pages_written, stats.pages_trimmed,
        stats.failed_requests, stats.retried_requests,
        stats.total_retries, stats.lost_pages,
    )
    if isinstance(stats, StreamingRequestStats):
        moments = tuple(
            (m.count, repr(m.mean), repr(m._m2), repr(m.min), repr(m.max))
            for m in (stats.overall, stats.reads, stats.writes)
        )
        reservoir = (stats.reservoir.seen, tuple(map(repr, stats.reservoir.values)))
        return ("streaming",) + common + moments + (reservoir,)
    assert isinstance(stats, RequestStats)
    return ("list",) + common + tuple(
        tuple(map(repr, xs))
        for xs in (stats.response_us, stats.read_response_us, stats.write_response_us)
    )


def _replay(ftl_name: str, mode: str, faults: bool, batch_kernels: bool,
            *, n: int = 1200, sanitize: bool = False, watch=None) -> dict:
    geometry = _geometry()
    ssd = SimulatedSSD(
        geometry,
        TimingParams(),
        ftl=ftl_name,
        batch_kernels=batch_kernels,
        faults=FAULTS if faults else None,
        sanitize=sanitize,
    )
    ssd.precondition(0.5)
    if watch is not None:
        watch(ssd)
    requests = io_requests(stream_workload(_spec(geometry, n=n)), geometry)
    if mode == "materialized":
        end = ssd.run(list(requests))
    else:
        depth = int(mode.rsplit("qd", 1)[1])
        end = ssd.run_stream(requests, queue_depth=depth)
    fingerprint = ftl_fingerprint(ssd.ftl, end)
    fingerprint.update(engine_fingerprint(ssd.engine))
    fingerprint["completed"] = ssd.stats.count
    fingerprint["stats"] = _stats_snapshot(ssd.controller.stats)
    if sanitize:
        assert ssd.sanitizer is not None
        assert ssd.sanitizer.finalize()["violations"] == 0
    return fingerprint


#: The benchmarked FTL families: DLOOP is where the kernels engage,
#: the rest prove the ``batch_kernels`` switch is inert elsewhere.
SWEEP_FTLS = ("dloop", "dftl", "fast", "pagemap")
SWEEP_MODES = ("materialized", "stream-qd8", "stream-qd32")


@pytest.mark.parametrize("ftl_name", SWEEP_FTLS)
@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("faults", (False, True), ids=("nofaults", "faults"))
def test_kernel_equivalence_sweep(ftl_name, mode, faults):
    if faults and not _supports_faults(ftl_name):
        pytest.skip(f"{ftl_name} has no fault-injection seams")
    scalar = _replay(ftl_name, mode, faults, batch_kernels=False)
    kernel = _replay(ftl_name, mode, faults, batch_kernels=True)
    assert kernel == scalar, (
        f"{ftl_name}/{mode}/faults={faults}: batch_kernels changed behaviour"
    )


@pytest.mark.parametrize("ftl_name", available_ftls())
def test_every_ftl_equivalent_under_faults_and_sanitizer(ftl_name):
    # The acceptance sweep: every registered FTL, faults injected
    # (where the FTL has seams) and the shadow-model sanitizer attached
    # (which also enables the TraceBus, exercising the kernels'
    # tracing fallback).
    faults = _supports_faults(ftl_name)
    scalar = _replay(ftl_name, "stream-qd32", faults, batch_kernels=False,
                     n=700, sanitize=True)
    kernel = _replay(ftl_name, "stream-qd32", faults, batch_kernels=True,
                     n=700, sanitize=True)
    assert kernel == scalar


def test_dloop_kernel_actually_engages():
    # Guard against the sweep passing vacuously: on the plain DLOOP
    # path with tracing off, batch_kernels=True must install a kernel.
    geometry = _geometry()
    on = SimulatedSSD(geometry, TimingParams(), ftl="dloop", batch_kernels=True)
    off = SimulatedSSD(geometry, TimingParams(), ftl="dloop", batch_kernels=False)
    assert on.ftl._kernel is not None
    assert off.ftl._kernel is None


def test_sweep_crosses_the_gc_watermark_mid_request():
    # Guard against the sweep missing the kernel's watermark branch: a
    # multi-page write whose fast-path page crosses the GC watermark,
    # with pages of the same request placed before and after it, runs
    # the GC pass at that page's completion time.
    crossings = []

    def watch(ssd):
        maybe_gc = ssd.ftl._maybe_gc

        def spy(plane, now):
            caller = sys._getframe(1)
            if caller.f_code is DloopKernel.write_pages.__code__:
                lpns = caller.f_locals["lpns"]
                crossings.append((lpns.index(caller.f_locals["lpn"]), len(lpns)))
            return maybe_gc(plane, now)

        ssd.ftl._maybe_gc = spy

    _replay("dloop", "materialized", False, batch_kernels=True, watch=watch)
    assert any(0 < index < pages - 1 for index, pages in crossings), crossings


def test_faults_detach_the_kernel():
    geometry = _geometry()
    ssd = SimulatedSSD(
        geometry, TimingParams(), ftl="dloop", batch_kernels=True, faults=FAULTS
    )
    assert ssd.ftl._kernel is None
