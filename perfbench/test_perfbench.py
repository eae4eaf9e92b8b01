"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import repro.ftl.gcontrol as gcontrol  # noqa: E402
from repro.experiments.runner import run_workload  # noqa: E402

from layers import LAYERS, LayerTracer  # noqa: E402
from replay import PROBE_REFERENCE_S, Round, run_round, speed_probe  # noqa: E402
from workloads import QUEUE_DEPTH, WORKLOADS, regime_failures  # noqa: E402


def _small(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], **changes)


@pytest.mark.parametrize(
    "name, requests",
    [("dloop-gc", 3000), ("dftl-translate", 1500), ("fast-merge", 1500)],
)
def test_unwarmed_window_matches_run_workload(name, requests):
    workload = _small(name, requests=requests, warm_fraction=0.0)
    seed = 5
    bench = run_round(workload, seed)
    stream = dict(stream=True, queue_depth=QUEUE_DEPTH) if workload.stream else {}
    ref = run_workload(workload.spec(seed), workload.config(), **stream)
    assert bench.sim["sim_resp_samples"] == ref.num_requests
    assert bench.sim["sim_resp_mean_us"] / 1000.0 == pytest.approx(ref.mean_response_ms, rel=1e-12)
    assert bench.sim["sim_resp_p99_us"] / 1000.0 == pytest.approx(ref.p99_response_ms, rel=1e-12)
    assert bench.sim["sim_waf"] == pytest.approx(ref.write_amplification, rel=1e-12)
    assert bench.sim["sim_window_us"] == pytest.approx(ref.sim_duration_s * 1e6, rel=1e-12)
    assert bench.layer["gc.passes"] == ref.gc_passes
    assert bench.layer["flash.erases"] == ref.erases


def test_traced_round_repeats_untraced_outputs_and_restores_program():
    workload = _small("dloop-observed", requests=3000, warm_fraction=0.3)
    base = run_round(workload, 3)
    original_picker = gcontrol.select_victim
    tracer = LayerTracer()
    traced = run_round(workload, 3, tracer)
    assert traced.sim == base.sim
    assert traced.layer == base.layer
    assert not base.failures and not traced.failures
    assert gcontrol.select_victim is original_picker
    for layer in ("traces", "controller", "ftl.write", "ftl.read", "cmt", "flash", "metrics", "obs"):
        assert tracer.calls[layer] > 0, layer
        assert tracer.self_s[layer] > 0.0, layer
    assert set(tracer.self_s) == set(LAYERS)


def test_self_time_excludes_nested_spans():
    tracer = LayerTracer()
    inner = tracer.timed("flash", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.02)
        inner()

    tracer.timed("ftl.write", outer_body)()
    assert tracer.self_s["flash"] >= 0.05
    assert 0.02 <= tracer.self_s["ftl.write"] < 0.045
    assert tracer.calls["ftl.write"] == tracer.calls["flash"] == 1


def test_times_are_normalised_by_the_speed_probe():
    # A host running the probe at half the reference speed ran the
    # window at half speed too: its CPU seconds count half.
    slow = PROBE_REFERENCE_S * 2
    r = Round(setup_s=3.0, setup={}, setup_probe_s=[slow] * 5,
              slice_cpu_s=[1.0, 3.0], slice_probe_s=[slow, slow])
    assert r.window_speed == pytest.approx(0.5)
    assert r.window_norm_s == pytest.approx(2.0)
    assert r.setup_norm_s == pytest.approx(1.5)
    assert 0.0 < speed_probe() < 1.0


def test_regime_checks_name_the_broken_regime():
    idle = dict.fromkeys(
        ("perf.kernel_active", "obs.exercised", "fast.full_merges"), 0
    )
    idle.update({"cmt.hit_ratio": 0.9, "gc.moved_per_host_page": 0.5})
    assert len(regime_failures(WORKLOADS["dloop-gc"], idle, (0.4, 0.8))) == 2
    assert regime_failures(WORKLOADS["dloop-observed"], idle, (0.0, 0.0)) == [
        "conformance probes scored no events"
    ]
    assert len(regime_failures(WORKLOADS["dftl-translate"], idle, (0.0, 0.0))) == 2
    assert regime_failures(WORKLOADS["fast-merge"], idle, (0.0, 0.0)) == ["FAST ran no full merges"]


def test_round_out_of_regime_reports_failure():
    # Too few writes for FAST's log blocks to fill: no full merge runs.
    workload = _small("fast-merge", requests=300, warm_fraction=0.0)
    assert run_round(workload, 1).failures == ["FAST ran no full merges"]


def test_cli_fails_without_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dloop-gc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
