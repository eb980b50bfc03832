"""Whole-pipeline throughput: batched evaluation vs the serial runner.

This is the end-to-end twin of ``bench_batch_vs_scalar`` (which times only
the EKF engine): here the *entire* evaluation — simulate, sanitize-free
four-stage pipeline, scoring, fusion — runs once through the serial
reference runner (:func:`repro.eval.parallel.evaluate_trips` on the
``serial`` backend) and once through the batched runner
(:func:`repro.eval.parallel.evaluate_trips_batch`), which amortizes
per-trip interpreter and dispatch cost over columnar
:class:`~repro.core.trip_batch.TripBatch` chunks.

Pytest mode (``pytest benchmarks/bench_pipeline_batch.py``) is the CI
smoke: it pins the two runners to an identical report at small N and
prints both timings. It asserts no speedup: the ratio falls whenever the
serial runner gets faster, so it says nothing about either runner alone.

Script mode (``PYTHONPATH=src python benchmarks/bench_pipeline_batch.py``)
runs the full 32-trip measurement and appends one record::

    {"timestamp": ..., "n_trips": 32, "serial_s": ..., "batch_s": ...,
     "speedup": ..., "trips_per_sec": ..., "serial_trips_per_sec": ...,
     "backend": ...}

to ``benchmarks/BENCH_pipeline.json``; the benchtrack gates
(``pipeline.trips_per_sec`` and ``pipeline.serial_trips_per_sec``, each
against the previous same-machine entry) read the latest record.
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.eval.parallel import (
    BatchEvalConfig,
    ParallelConfig,
    evaluate_trips,
    evaluate_trips_batch,
)
from repro.eval.runner import RunnerConfig
from repro.roads.builder import SectionSpec, build_profile

ARTIFACT = Path(__file__).resolve().parent / "BENCH_pipeline.json"

N_TRIPS = 32
REPEATS = 3

_ROUTE = (
    SectionSpec.from_degrees(400.0, 2.0, lanes=2),
    SectionSpec.from_degrees(300.0, -1.5, lanes=2, turn_deg=25.0),
    SectionSpec.from_degrees(400.0, 3.0, lanes=2),
    SectionSpec.from_degrees(300.0, 0.0, lanes=2, turn_deg=-20.0),
)


def make_profile():
    """The fixed bench route: ~1.4 km, mixed grades, two gentle curves."""
    return build_profile(list(_ROUTE), name="bench-pipeline-route")


def batch_config() -> BatchEvalConfig:
    """Chunked batching tuned to the host: worker processes only help when
    there is more than one core to run them on."""
    backend = "process" if (os.cpu_count() or 1) > 1 else "serial"
    return BatchEvalConfig(chunk_size=8, max_workers=4, backend=backend)


def time_runners(profile, cfg, bat, repeats: int = REPEATS):
    """Best-of-N wall time for each runner (min filters scheduler noise)."""
    serial_s = batch_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluate_trips(profile, cfg, ParallelConfig(backend="serial", max_workers=1))
        serial_s = min(serial_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        evaluate_trips_batch(profile, cfg, bat)
        batch_s = min(batch_s, time.perf_counter() - t0)
    return serial_s, batch_s


def assert_reports_equal(a, b) -> None:
    """The batched report must be *identical* to the serial one."""
    assert a.n_trips == b.n_trips and a.profile_name == b.profile_name
    assert np.array_equal(a.s_grid, b.s_grid)
    assert np.array_equal(a.fused_theta, b.fused_theta)
    assert a.mae_deg == b.mae_deg and a.mre == b.mre
    for ta, tb in zip(a.trips, b.trips):
        assert (ta.index, ta.ok, ta.error) == (tb.index, tb.ok, tb.error)
        if ta.ok:
            assert np.array_equal(ta.theta, tb.theta)
            assert ta.mae_deg == tb.mae_deg and ta.mre == tb.mre
            assert ta.n_lane_changes == tb.n_lane_changes


# -- pytest smoke ------------------------------------------------------------


def test_batch_runner_identical_and_timed(bench_telemetry):
    """Identical reports; both runners' throughput is recorded, not gated."""
    profile = make_profile()
    cfg = RunnerConfig(n_trips=6, seed=11)
    serial = evaluate_trips(profile, cfg, ParallelConfig(backend="serial", max_workers=1))
    batched = evaluate_trips_batch(
        profile, cfg, BatchEvalConfig(chunk_size=6, backend="serial")
    )
    assert_reports_equal(serial, batched)

    with bench_telemetry.span("bench_pipeline_batch", n_trips=6):
        serial_s, batch_s = time_runners(
            profile, cfg, BatchEvalConfig(chunk_size=6, backend="serial"), repeats=2
        )
    speedup = serial_s / batch_s
    bench_telemetry.gauge("bench.pipeline_speedup", speedup)
    print(
        f"\n6 trips end-to-end: serial {serial_s:.2f} s, "
        f"batch {batch_s:.2f} s, speedup {speedup:.2f}x\n",
        flush=True,
    )


# -- script mode -------------------------------------------------------------


def main() -> None:
    profile = make_profile()
    cfg = RunnerConfig(n_trips=N_TRIPS, seed=11)
    bat = batch_config()
    serial_s, batch_s = time_runners(profile, cfg, bat)
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n_trips": N_TRIPS,
        "backend": bat.backend,
        "chunk_size": bat.chunk_size,
        "serial_s": round(serial_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(serial_s / batch_s, 3),
        "trips_per_sec": round(N_TRIPS / batch_s, 3),
        "serial_trips_per_sec": round(N_TRIPS / serial_s, 3),
    }
    history = []
    if ARTIFACT.exists():
        history = json.loads(ARTIFACT.read_text())
    history.append(record)
    ARTIFACT.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
