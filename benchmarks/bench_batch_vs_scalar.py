"""Scalar core vs vectorized EKF kernel: cost per track-tick by track count.

:func:`repro.core.batch.estimate_tracks_batch` loops the scalar core below
``BATCH_MIN_TRACKS`` tracks and runs the vectorized tick loop at or above
it. The two kernels are bit-identical, so the threshold only trades speed;
this benchmark measures where the crossover lies.

Pytest mode (``pytest benchmarks/bench_batch_vs_scalar.py``) is the CI
smoke: it re-checks exact equality of the two kernels on the benchmark
inputs and asserts a conservative vectorized speedup at 64 tracks, well
above the crossover, so a regression that de-vectorizes the kernel fails
loudly without making CI timing-flaky.

Script mode (``PYTHONPATH=src python benchmarks/bench_batch_vs_scalar.py``)
sweeps the track count over :data:`SWEEP` for each traffic shape in
:data:`TRAFFIC`, times both kernels at each width, and appends one record
per shape::

    {"timestamp": ..., "series": 2, "traffic": "mixed", "n_ticks": ...,
     "sweep": [{"n_tracks": N, "scalar_ns_per_track_tick": ...,
     "batch_ns_per_track_tick": ..., "speedup": ...}, ...],
     "crossover_tracks": ..., "batch_min_tracks": ..., "n_tracks": 64,
     "scalar_ns_per_track_tick": ..., "batch_ns_per_track_tick": ...,
     "speedup": ...}

to ``benchmarks/BENCH_batch.json``. The two traffic shapes:

``uniform``
    Every track on one timebase with a measurement on every tick, so the
    kernel never holds a track. Records carry ``"traffic": "uniform"``;
    older records without a ``traffic`` key are uniform too.
``mixed``
    Shaped like a ``fleet_store`` call: trips of four velocity sources on
    one phone timebase, measured every 50 (GPS), 1 (speedometer), 1
    (accelerometer velocity) and 5 (CAN) ticks, trip lengths up to
    :data:`LENGTH_SPREAD` apart. This is the traffic the kernel serves.

``crossover_tracks`` is the smallest swept width from which the vectorized
kernel is at least :data:`WIN_MARGIN` faster at every wider width;
``BATCH_MIN_TRACKS`` is set from the ``mixed`` crossover, and the script
notes when the two differ. Near the break-even width the two kernels trade
places from run to run, so a tie goes to the scalar core, which allocates
no ``(tick, track)`` arrays. Series 2 times the unboxed scalar loop;
series-1 records divided by an older, slower scalar loop and are not
comparable.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.constants import GRAVITY
from repro.core.batch import BATCH_MIN_TRACKS, _estimate_tracks_vectorized
from repro.core.gradient_ekf import estimate_track
from repro.sensors.base import SampledSignal

ARTIFACT = Path(__file__).resolve().parent / "BENCH_batch.json"

SERIES = 2
SWEEP = (1, 2, 4, 8, 16, 24, 32, 64)
GATE_TRACKS = 64
N_TICKS = 2_000
REPEATS = 7
#: Speedup the vectorized kernel must reach to count as faster.
WIN_MARGIN = 1.1

_SOURCES = ("gps-speed", "speedometer", "canbus", "accelerometer-velocity")
#: One ``fleet_store`` trip: each velocity source and its measurement stride
#: in phone ticks.
TRIP_SOURCES = (
    ("gps-speed", 50),
    ("speedometer", 1),
    ("accelerometer-velocity", 1),
    ("canbus", 5),
)
#: Largest relative length difference between the trips of a mixed batch.
LENGTH_SPREAD = 0.04
TRAFFIC = ("uniform", "mixed")
#: The traffic whose crossover sets ``BATCH_MIN_TRACKS``.
ROUTING_TRAFFIC = "mixed"


def make_inputs(n_tracks: int = GATE_TRACKS, n_ticks: int = N_TICKS, seed: int = 0):
    """``n_tracks`` synthetic (accel, velocity, arc_length) triples, all on
    one timebase with a measurement on every tick."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_ticks) * 0.02
    accels, velocities, arcs = [], [], []
    for k in range(n_tracks):
        theta = float(rng.uniform(-0.05, 0.05))
        accel = SampledSignal(
            t=t,
            values=GRAVITY * np.sin(theta) + rng.normal(0.0, 0.08, n_ticks),
            name="accel-long",
        )
        velocity = SampledSignal(
            t=t,
            values=12.0 + rng.normal(0.0, 0.1, n_ticks),
            name=_SOURCES[k % len(_SOURCES)],
        )
        accels.append(accel)
        velocities.append(velocity)
        arcs.append(12.0 * t)
    return accels, velocities, arcs


def make_mixed_inputs(n_tracks: int = GATE_TRACKS, n_ticks: int = N_TICKS, seed: int = 0):
    """``n_tracks`` (accel, velocity, arc_length) triples shaped like a
    ``fleet_store`` call: consecutive groups of :data:`TRIP_SOURCES` share a
    trip's timebase and accelerometer, and each trip's length is ``n_ticks``
    plus up to :data:`LENGTH_SPREAD`."""
    rng = np.random.default_rng(seed)
    accels, velocities, arcs = [], [], []
    for k in range(n_tracks):
        source, stride = TRIP_SOURCES[k % len(TRIP_SOURCES)]
        if k % len(TRIP_SOURCES) == 0:
            n = n_ticks + int(rng.integers(0, int(n_ticks * LENGTH_SPREAD) + 1))
            t = np.arange(n) * 0.02
            theta = float(rng.uniform(-0.05, 0.05))
            accel = SampledSignal(
                t=t,
                values=GRAVITY * np.sin(theta) + rng.normal(0.0, 0.08, n),
                name="accel-long",
            )
            speed = 12.0 + rng.normal(0.0, 0.1, n)
        values = np.full(n, np.nan)
        values[::stride] = speed[::stride]
        accels.append(accel)
        velocities.append(SampledSignal(t=t, values=values, name=source))
        arcs.append(12.0 * t)
    return accels, velocities, arcs


INPUTS = {"uniform": make_inputs, "mixed": make_mixed_inputs}


def run_scalar(accels, velocities, arcs):
    return [
        estimate_track(a, v, s) for a, v, s in zip(accels, velocities, arcs)
    ]


def time_kernels(accels, velocities, arcs, repeats: int = REPEATS):
    """Best-of-N wall time for each kernel, interleaved so a drift in host
    speed hits both alike (min filters scheduler noise)."""
    scalar_s = batch_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_scalar(accels, velocities, arcs)
        scalar_s = min(scalar_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _estimate_tracks_vectorized(accels, velocities, arcs)
        batch_s = min(batch_s, time.perf_counter() - t0)
    return scalar_s, batch_s


def crossover(sweep: list[dict]) -> int | None:
    """Smallest swept width from which the vectorized kernel wins by
    :data:`WIN_MARGIN` at every wider width, or ``None`` when it does not
    win at the widest."""
    found = None
    for row in reversed(sweep):
        if row["speedup"] < WIN_MARGIN:
            break
        found = row["n_tracks"]
    return found


# -- pytest smoke ------------------------------------------------------------


def test_batch_equivalent_and_faster(bench_telemetry):
    accels, velocities, arcs = make_inputs(n_tracks=GATE_TRACKS, n_ticks=1_000)
    batch = _estimate_tracks_vectorized(accels, velocities, arcs)
    scalar = run_scalar(accels, velocities, arcs)
    worst = max(
        float(np.max(np.abs(b.theta - s.theta)))
        for b, s in zip(batch, scalar)
    )
    assert worst == 0.0

    with bench_telemetry.span("bench_batch_vs_scalar", n_tracks=GATE_TRACKS):
        scalar_s, batch_s = time_kernels(accels, velocities, arcs, repeats=3)
    speedup = scalar_s / batch_s
    bench_telemetry.gauge("bench.batch_speedup", speedup)
    print(
        f"\n{GATE_TRACKS} tracks x 1000 ticks: scalar {scalar_s * 1e3:.1f} ms, "
        f"batch {batch_s * 1e3:.1f} ms, speedup {speedup:.2f}x\n",
        flush=True,
    )
    # Conservative floor for shared CI runners; the scheduled script-mode
    # run records the full sweep.
    assert speedup > 1.5


# -- script mode -------------------------------------------------------------


def sweep_traffic(traffic: str) -> dict:
    """Time both kernels over :data:`SWEEP` on one traffic shape; returns
    the record to append."""
    sweep = []
    for n_tracks in SWEEP:
        accels, velocities, arcs = INPUTS[traffic](n_tracks=n_tracks)
        scalar_s, batch_s = time_kernels(accels, velocities, arcs)
        per_tt = 1e9 / sum(len(a.t) for a in accels)
        row = {
            "n_tracks": n_tracks,
            "scalar_ns_per_track_tick": round(scalar_s * per_tt, 1),
            "batch_ns_per_track_tick": round(batch_s * per_tt, 1),
            "speedup": round(scalar_s / batch_s, 3),
        }
        sweep.append(row)
        print(json.dumps({"traffic": traffic, **row}), flush=True)
    gate = next(row for row in sweep if row["n_tracks"] == GATE_TRACKS)
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "series": SERIES,
        "traffic": traffic,
        "n_ticks": N_TICKS,
        "sweep": sweep,
        "crossover_tracks": crossover(sweep),
        "batch_min_tracks": BATCH_MIN_TRACKS,
        **gate,
    }


def main() -> None:
    history = []
    if ARTIFACT.exists():
        history = json.loads(ARTIFACT.read_text())
    for traffic in TRAFFIC:
        record = sweep_traffic(traffic)
        history.append(record)
        ARTIFACT.write_text(json.dumps(history, indent=2) + "\n")
        print(json.dumps(record, indent=2))
        if traffic == ROUTING_TRAFFIC and record["crossover_tracks"] != BATCH_MIN_TRACKS:
            print(
                f"note: measured {traffic} crossover {record['crossover_tracks']} "
                f"tracks, BATCH_MIN_TRACKS is {BATCH_MIN_TRACKS}"
            )


if __name__ == "__main__":
    main()
