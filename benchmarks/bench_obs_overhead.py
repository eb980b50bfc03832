"""Telemetry overhead micro-benchmark + observability smoke benchmark.

Three guarantees are pinned here:

1. With telemetry disabled (``NullTelemetry`` / no telemetry argument) the
   streaming hot path ``StreamingGradientEstimator.push`` pays only a
   single ``is None`` check — measured overhead must stay below 5 %.
2. Health monitors plus live telemetry (the span tree the profiler reads)
   must cost under 10 % on a full batch-engine ``estimate()`` — and leave
   the outputs bit-identical.
3. With telemetry enabled, one ``GradientEstimationSystem.estimate`` call
   produces the full four-stage span tree with populated counters; this
   doubles as the CI smoke benchmark that populates
   ``benchmarks/bench_telemetry.json``.

The overhead ratios land as ``bench.push_overhead_ratio`` /
``bench.monitor_overhead_ratio`` gauges in the telemetry artifact; the
asserts below are their gates.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import print_block
from repro.constants import GRAVITY
from repro.core.online import StreamingGradientEstimator
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.obs import NullTelemetry, Telemetry, export_run
from repro.obs.health import HealthConfig
from repro.obs.profile import Profiler
from repro.roads import SectionSpec, build_profile
from repro.sensors import Smartphone
from repro.vehicle import DriverProfile, simulate_trip

N_TICKS = 20_000
REPEATS = 7


def _inputs(n: int = N_TICKS, seed: int = 0) -> tuple[list[float], list[float]]:
    rng = np.random.default_rng(seed)
    accel = GRAVITY * math.sin(0.03) + rng.normal(0.0, 0.05, n)
    v_meas = 12.0 + rng.normal(0.0, 0.05, n)
    return accel.tolist(), v_meas.tolist()


def _time_push_loop(telemetry) -> float:
    accel, v_meas = _inputs()
    est = StreamingGradientEstimator(dt=0.02, v0=12.0, telemetry=telemetry)
    push = est.push
    t0 = time.perf_counter()
    for a, z in zip(accel, v_meas):
        push(a, z)
    return time.perf_counter() - t0


def test_null_telemetry_push_overhead(bench_telemetry):
    """NullTelemetry must cost <5% on the streaming hot path."""
    best_base = math.inf
    best_null = math.inf
    # Interleave the arms so CPU frequency drift hits both equally; the
    # min over repeats filters scheduler noise.
    with bench_telemetry.span("overhead_microbench", ticks=N_TICKS, repeats=REPEATS):
        for _ in range(REPEATS):
            best_base = min(best_base, _time_push_loop(None))
            best_null = min(best_null, _time_push_loop(NullTelemetry()))
    ratio = best_null / best_base
    bench_telemetry.gauge("bench.push_overhead_ratio", ratio)
    print_block(
        f"streaming push: baseline {best_base * 1e6 / N_TICKS:.3f} us/tick, "
        f"NullTelemetry {best_null * 1e6 / N_TICKS:.3f} us/tick, "
        f"overhead {100.0 * (ratio - 1.0):+.2f}%"
    )
    assert ratio < 1.05


def _bench_road_recording(seed_trip: int = 5, seed_phone: int = 6):
    specs = [
        SectionSpec.from_degrees(600.0, 2.0, 1, 5.0, name="up"),
        SectionSpec.from_degrees(600.0, -1.5, 2, -8.0, name="down"),
        SectionSpec.from_degrees(600.0, 3.0, 2, 4.0, name="steep"),
    ]
    profile = build_profile(specs, name="overhead")
    trace = simulate_trip(
        profile, driver=DriverProfile(lane_changes_per_km=2.0), seed=seed_trip
    )
    recording = Smartphone().record(trace, np.random.default_rng(seed_phone))
    return profile, recording


def test_monitor_and_profiler_overhead(bench_telemetry):
    """Health monitors + live telemetry must cost <10% on a per-trip estimate.

    Also pins passivity: the monitored/profiled run's outputs must be
    bit-identical to the bare run's.
    """
    profile, recording = _bench_road_recording()
    bare = GradientEstimationSystem(
        profile, config=GradientSystemConfig(health=HealthConfig(enabled=False))
    )
    tel = Telemetry("monitored")
    monitored = GradientEstimationSystem(
        profile, config=GradientSystemConfig(), telemetry=tel
    )

    result_bare = bare.estimate(recording)
    result_mon = monitored.estimate(recording)
    assert result_mon.health is not None
    assert np.array_equal(result_bare.fused.theta, result_mon.fused.theta)
    assert np.array_equal(result_bare.fused.variance, result_mon.fused.variance)
    for source in result_bare.tracks:
        assert np.array_equal(
            result_bare.tracks[source].theta, result_mon.tracks[source].theta
        )

    best_bare = math.inf
    best_mon = math.inf
    with bench_telemetry.span("monitor_overhead_bench", repeats=REPEATS):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            bare.estimate(recording)
            best_bare = min(best_bare, time.perf_counter() - t0)
            t0 = time.perf_counter()
            monitored.estimate(recording)
            best_mon = min(best_mon, time.perf_counter() - t0)
    ratio = best_mon / best_bare
    bench_telemetry.gauge("bench.monitor_overhead_ratio", ratio)
    assert {"stage.alignment", "stage.ekf_tracks", "stage.fusion"} <= set(
        Profiler.from_telemetry(tel).sections
    )
    print_block(
        f"batch estimate: bare {best_bare * 1e3:.1f} ms, monitors+telemetry "
        f"{best_mon * 1e3:.1f} ms, overhead {100.0 * (ratio - 1.0):+.2f}%"
    )
    assert ratio < 1.10


def test_estimate_span_tree_smoke(bench_telemetry):
    """One estimate() populates the four paper stages and the counters."""
    specs = [
        SectionSpec.from_degrees(400.0, 2.0, 1, 5.0, name="up"),
        SectionSpec.from_degrees(400.0, -1.5, 2, -8.0, name="down"),
    ]
    profile = build_profile(specs, name="smoke")
    trace = simulate_trip(profile, driver=DriverProfile(lane_changes_per_km=2.0), seed=5)
    recording = Smartphone().record(trace, np.random.default_rng(6))

    system = GradientEstimationSystem(profile, telemetry=bench_telemetry)
    system.estimate(recording)

    root = bench_telemetry.tracer.find("estimate")
    assert root is not None
    stages = [child.name for child in root.children]
    assert stages == ["alignment", "lane_change", "ekf_tracks", "fusion"]
    assert all(child.duration > 0.0 for child in root.children)
    counters = export_run(bench_telemetry)["metrics"]["counters"]
    assert counters["ekf_ticks"] > 0
    assert counters["fusion_tracks_in"] == 4
    print_block(
        "smoke estimate stage timings [ms]: "
        + ", ".join(f"{c.name}={c.duration * 1e3:.1f}" for c in root.children)
    )
